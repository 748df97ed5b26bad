"""Database, segments and relations: the storage substrate.

The lockable-unit hierarchy of the paper starts at *database* and descends
through *segment*, *relation* and *complex object* into the object
structure (Figures 2 and 5).  This module provides those containers plus
the instance operations the protocols and workloads need:

* insert/get/update/delete of complex objects with schema validation,
* surrogate-based reference resolution (``dereference``),
* the **reverse-reference scan** used by the naive DAG baseline: finding
  every object that references a given common-data object *without*
  backward pointers (the paper rules those out for maintenance reasons,
  section 3.2.2) — the scan's cost is surfaced via ``scan_cost`` so the
  benchmarks can report it.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import IntegrityError, SchemaError
from repro.nf2.paths import resolve_type, resolve_value
from repro.nf2.refindex import ReferenceIndex
from repro.nf2.schema import RelationSchema, check_schema_closure
from repro.nf2.surrogate import SurrogateGenerator
from repro.nf2.values import (
    ComplexObject,
    ListValue,
    Reference,
    SetValue,
    TupleValue,
)


def _parse_bool(text: str) -> bool:
    if text not in ("True", "False"):
        raise ValueError(text)
    return text == "True"


#: how a key spelt as text (``str(key)``) may be read back, per atomic
#: domain of the key attribute; float keys may hold ints
_KEY_PARSERS = {
    "str": (),
    "int": (int,),
    "float": (int, float),
    "bool": (_parse_bool,),
}


class Relation:
    """A stored relation: complex objects indexed by surrogate and by key."""

    def __init__(self, schema: RelationSchema, database: "Database"):
        self.schema = schema
        self.database = database
        self._by_surrogate: Dict[str, ComplexObject] = {}
        self._by_key: Dict[object, ComplexObject] = {}
        #: secondary indexes by attribute name (see Database.create_index)
        self.indexes: Dict[str, "Index"] = {}
        #: text -> key candidates for the key attribute's atomic domain
        self._key_parsers = _KEY_PARSERS[
            dict(schema.object_type.attributes)[schema.key].domain
        ]

    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def segment(self) -> str:
        return self.schema.segment

    def __len__(self):
        return len(self._by_surrogate)

    def __iter__(self) -> Iterator[ComplexObject]:
        return iter(list(self._by_surrogate.values()))

    def insert(self, root: TupleValue) -> ComplexObject:
        """Validate and store a new complex object; returns it with surrogate."""
        self.schema.object_type.validate(root, resolver=self.database._resolves)
        key = root[self.schema.key]
        if key in self._by_key:
            raise IntegrityError(
                "relation %r already holds an object with key %r"
                % (self.name, key)
            )
        surrogate = self.database._surrogates.next_for(self.name)
        obj = ComplexObject(self.name, surrogate, key, root)
        for attribute, index in self.indexes.items():
            index.add(root[attribute], surrogate)
        self._by_surrogate[surrogate] = obj
        self._by_key[key] = obj
        self.database.reference_index.index_object(self, obj)
        self.database.structure_version += 1
        return obj

    def get(self, key) -> ComplexObject:
        """Look up a complex object by key attribute value."""
        try:
            return self._by_key[key]
        except KeyError:
            raise IntegrityError(
                "relation %r has no object with key %r" % (self.name, key)
            )

    def get_by_surrogate(self, surrogate: str) -> ComplexObject:
        try:
            return self._by_surrogate[surrogate]
        except KeyError:
            raise IntegrityError(
                "relation %r has no object with surrogate %r"
                % (self.name, surrogate)
            )

    def contains_key(self, key) -> bool:
        return key in self._by_key

    def has_key_text(self, text: str) -> bool:
        """Whether some object's key reads ``text`` as resource tuples
        spell keys (``str(key)``): a probe of the key index, not a scan."""
        obj = self._by_key.get(text)
        if obj is None:
            for parse in self._key_parsers:
                try:
                    obj = self._by_key.get(parse(text))
                except ValueError:
                    continue
                if obj is not None:
                    break
        return obj is not None and str(obj.key) == text

    def contains_surrogate(self, surrogate: str) -> bool:
        return surrogate in self._by_surrogate

    def delete(self, key, force: bool = False) -> ComplexObject:
        """Delete the object with ``key``.

        Unless ``force`` is set, deletion of an object that is still
        referenced from elsewhere in the database raises
        :class:`IntegrityError` (dangling references would otherwise break
        the non-disjoint structure the lock protocol relies on).
        """
        obj = self.get(key)
        if not force:
            # Referential-integrity check: the reverse-reference index
            # answers "who references me?" in O(1); the full database scan
            # remains only as the naive-baseline ablation.
            if self.database.use_reference_index:
                referencing = self.database.reference_index.referencing_objects(
                    obj.reference()
                )
            else:
                referencing = self.database.scan_referencing(obj.reference())
            if referencing:
                raise IntegrityError(
                    "object %r of relation %r is still referenced by %d "
                    "object(s); delete the references first or use force=True"
                    % (key, self.name, len(referencing))
                )
        for attribute, index in self.indexes.items():
            index.remove(obj.root[attribute], obj.surrogate)
        del self._by_surrogate[obj.surrogate]
        del self._by_key[obj.key]
        self.database.reference_index.forget_object(self, obj)
        self.database.structure_version += 1
        return obj

    def replace(self, obj: ComplexObject):
        """Replace a stored object's data tree (used by undo/check-in).

        The replacement is validated against the schema and must keep the
        same surrogate; the key attribute may change.
        """
        if obj.surrogate not in self._by_surrogate:
            raise IntegrityError(
                "relation %r has no object with surrogate %r"
                % (self.name, obj.surrogate)
            )
        self.schema.object_type.validate(obj.root, resolver=self.database._resolves)
        stored = self._by_surrogate[obj.surrogate]
        new_key = obj.root[self.schema.key]
        key_changed = new_key != stored.key
        if key_changed:
            if new_key in self._by_key:
                raise IntegrityError(
                    "key %r already present in relation %r" % (new_key, self.name)
                )
            del self._by_key[stored.key]
            self._by_key[new_key] = stored
            stored.key = new_key
        for attribute, index in self.indexes.items():
            old_value = stored.root[attribute]
            new_value = obj.root[attribute]
            if old_value != new_value:
                index.remove(old_value, stored.surrogate)
                index.add(new_value, stored.surrogate)
        stored.root = obj.root
        # A key change renames the entry-point resource of this object, so
        # the reference index must invalidate even if references stand.
        self.database.reference_index.refresh_object(
            self, stored, key_changed=key_changed
        )
        self.database.structure_version += 1

    def restore(self, snapshot: ComplexObject) -> ComplexObject:
        """Re-insert a previously deleted object under its *original* surrogate.

        Undo of a delete must restore identity, not just content: references
        elsewhere in the database (including ones re-added by later undo
        actions of the same rollback) name the object by surrogate, so a
        fresh surrogate from :meth:`insert` would leave them dangling.
        """
        self.schema.object_type.validate(
            snapshot.root, resolver=self.database._resolves
        )
        key = snapshot.root[self.schema.key]
        if key in self._by_key:
            raise IntegrityError(
                "relation %r already holds an object with key %r"
                % (self.name, key)
            )
        if snapshot.surrogate in self._by_surrogate:
            raise IntegrityError(
                "relation %r already holds surrogate %r"
                % (self.name, snapshot.surrogate)
            )
        obj = ComplexObject(self.name, snapshot.surrogate, key, snapshot.root)
        for attribute, index in self.indexes.items():
            index.add(obj.root[attribute], obj.surrogate)
        self._by_surrogate[obj.surrogate] = obj
        self._by_key[key] = obj
        self.database.reference_index.index_object(self, obj)
        self.database.structure_version += 1
        return obj

    def resolve(self, obj: ComplexObject, steps):
        """Resolve an instance path within ``obj`` (see repro.nf2.paths)."""
        return resolve_value(obj.root, self.schema.object_type, steps)

    def resolve_type(self, steps):
        """Resolve a schema path against this relation's object type."""
        return resolve_type(self.schema.object_type, steps)


class Database:
    """A database: named segments containing complex-object relations."""

    def __init__(self, name: str = "db1"):
        self.name = name
        self._relations: Dict[str, Relation] = {}
        self._pending_schemas: Dict[str, RelationSchema] = {}
        self._surrogates = SurrogateGenerator()
        #: number of objects visited by reverse-reference scans (benchmarks
        #: read and reset this to quantify the naive baseline's overhead).
        self.scan_cost = 0
        #: subtree walks performed by *naive* downward-propagation scans
        #: (UnitMap.entry_points_below without the index); the cached path
        #: counts dictionary lookups on ``reference_index`` instead.
        self.ref_scan_ops = 0
        #: incremental reverse-reference / entry-point index (see
        #: :mod:`repro.nf2.refindex`); ``use_reference_index`` is the
        #: ablation flag restoring every naive scan for benchmarks.
        self.reference_index = ReferenceIndex(self)
        self.use_reference_index = True
        #: optional hooks fired on relation creation (catalog integration)
        self._creation_hooks: List[Callable[[Relation], None]] = []
        #: coarse object-graph/schema version: bumped by every structural
        #: mutation (insert/delete/replace/restore, component writes via
        #: ``notify_object_changed`` — which undo and check-in also run
        #: through — and relation/index creation).  Compiled lock plans
        #: are stamped with this counter; see repro.locking.plancache.
        self.structure_version = 0

    # -- schema management -------------------------------------------------

    def create_relation(self, schema: RelationSchema) -> Relation:
        """Create one relation; its referenced relations must already exist.

        For mutually unordered creation use :meth:`create_relations`.
        """
        return self.create_relations([schema])[0]

    def create_relations(self, schemas) -> List[Relation]:
        """Create several relations atomically, validating schema closure."""
        schemas = list(schemas)
        all_schemas = {rel.schema.name: rel.schema for rel in self._relations.values()}
        for schema in schemas:
            if schema.name in all_schemas or schema.name in self._pending_schemas:
                raise SchemaError("relation %r already exists" % schema.name)
            all_schemas[schema.name] = schema
        check_schema_closure(all_schemas.values())
        created = []
        for schema in schemas:
            relation = Relation(schema, self)
            self._relations[schema.name] = relation
            created.append(relation)
        for relation in created:
            for hook in self._creation_hooks:
                hook(relation)
        self.structure_version += 1
        return created

    def on_relation_created(self, hook: Callable[[Relation], None]):
        """Register a hook invoked for every newly created relation."""
        self._creation_hooks.append(hook)

    def create_index(
        self, relation_name: str, attribute: str, unique: bool = False
    ):
        """Create (and backfill) a secondary index on a top-level atomic
        attribute — an additional lockable unit beside the relation, as in
        Figure 2's System R graph."""
        from repro.nf2.index import Index, validate_indexable

        relation = self.relation(relation_name)
        validate_indexable(relation.schema, attribute)
        if attribute in relation.indexes:
            raise SchemaError(
                "relation %r already has an index on %r"
                % (relation_name, attribute)
            )
        index = Index(relation_name, attribute, unique=unique)
        for obj in relation:
            index.add(obj.root[attribute], obj.surrogate)
        relation.indexes[attribute] = index
        self.structure_version += 1
        return index

    def relation(self, name: str) -> Relation:
        try:
            return self._relations[name]
        except KeyError:
            raise SchemaError("no relation named %r" % name)

    def find_relation(self, name: str) -> Optional[Relation]:
        """The relation named ``name``, or None."""
        return self._relations.get(name)

    def relations(self) -> List[Relation]:
        return list(self._relations.values())

    def segments(self) -> List[str]:
        """Segment names in first-seen order."""
        seen = []
        for relation in self._relations.values():
            if relation.segment not in seen:
                seen.append(relation.segment)
        return seen

    # -- instance operations ------------------------------------------------

    def insert(self, relation_name: str, root: TupleValue) -> ComplexObject:
        return self.relation(relation_name).insert(root)

    def get(self, relation_name: str, key) -> ComplexObject:
        return self.relation(relation_name).get(key)

    def dereference(self, ref: Reference) -> ComplexObject:
        """Resolve a reference to its target complex object."""
        return self.relation(ref.relation).get_by_surrogate(ref.surrogate)

    def _resolves(self, relation_name: str, surrogate: str) -> bool:
        """Resolver passed to type validation: does the target exist?"""
        if relation_name not in self._relations:
            return False
        return self._relations[relation_name].contains_surrogate(surrogate)

    # -- reverse-reference scan (naive baseline support) --------------------

    def scan_referencing(
        self, target: Reference
    ) -> List[Tuple[ComplexObject, Tuple]]:
        """Find every (object, path) whose value references ``target``.

        This is the expensive operation the paper describes for the naive
        DAG protocol: "all parent nodes of the requested node must be
        determined" by scanning, because backward pointers are ruled out.
        Each visited object increments :attr:`scan_cost`.
        """
        from repro.nf2.values import reference_paths

        hits = []
        for relation in self._relations.values():
            for obj in relation:
                self.scan_cost += 1
                for ref, steps in reference_paths(obj.root):
                    if ref == target:
                        hits.append((obj, steps))
        return hits

    def reset_scan_cost(self) -> int:
        """Return and clear the accumulated reverse-scan cost."""
        cost, self.scan_cost = self.scan_cost, 0
        return cost

    def reset_ref_scan_ops(self) -> int:
        """Return and clear the naive downward-propagation scan counter."""
        ops, self.ref_scan_ops = self.ref_scan_ops, 0
        return ops

    # -- incremental reference-index maintenance -----------------------------

    def notify_object_changed(self, relation_name: str, surrogate: str):
        """Tell the reference index one object's tree was mutated in place.

        Called by the transaction manager after component writes (and by
        their undo actions): the object is re-scanned incrementally; memoized
        closures are invalidated only when its reference list changed.
        """
        relation = self._relations.get(relation_name)
        if relation is None:
            return
        obj = relation._by_surrogate.get(surrogate)
        if obj is None:
            return
        self.structure_version += 1
        self.reference_index.refresh_object(relation, obj)

    # -- statistics -----------------------------------------------------------

    def object_count(self) -> int:
        return sum(len(relation) for relation in self._relations.values())

    def __repr__(self):
        return "Database(%r, relations=%r)" % (
            self.name,
            sorted(self._relations),
        )


def make_tuple(**attributes) -> TupleValue:
    """Convenience constructor mirroring the examples in the paper."""
    return TupleValue(**attributes)


def make_set(*elements) -> SetValue:
    return SetValue(elements)


def make_list(*elements) -> ListValue:
    return ListValue(elements)
