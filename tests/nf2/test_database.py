"""Database / relation storage: insert, lookup, delete, references, scans."""

import pytest

from repro.errors import IntegrityError, SchemaError
from repro.nf2 import (
    AtomicType,
    Database,
    RefType,
    RelationSchema,
    SetType,
    TupleType,
    make_set,
    make_tuple,
    parse_path,
)
from repro.workloads import build_cells_database, cells_schema, effectors_schema


@pytest.fixture
def db():
    database = Database("db1")
    database.create_relations([effectors_schema(), cells_schema()])
    return database


class TestSchemaManagement:
    def test_create_relations_validates_closure(self):
        database = Database()
        with pytest.raises(SchemaError):
            database.create_relation(
                RelationSchema(
                    "robots",
                    TupleType(
                        [("r_id", AtomicType("str")), ("e", RefType("effectors"))]
                    ),
                )
            )

    def test_duplicate_relation_rejected(self, db):
        with pytest.raises(SchemaError):
            db.create_relation(effectors_schema())

    def test_relation_lookup(self, db):
        assert db.relation("cells").name == "cells"
        with pytest.raises(SchemaError):
            db.relation("nope")

    def test_segments_listed(self, db):
        assert set(db.segments()) == {"seg1", "seg2"}

    def test_creation_hook_fires(self):
        database = Database()
        seen = []
        database.on_relation_created(lambda rel: seen.append(rel.name))
        database.create_relation(effectors_schema())
        assert seen == ["effectors"]


class TestInsertAndLookup:
    def test_insert_assigns_surrogate_and_key(self, db):
        obj = db.insert("effectors", make_tuple(eff_id="e1", tool="t1"))
        assert obj.key == "e1"
        assert obj.surrogate.startswith("@effectors:")

    def test_insert_validates_schema(self, db):
        with pytest.raises(SchemaError):
            db.insert("effectors", make_tuple(eff_id="e1"))

    def test_duplicate_key_rejected(self, db):
        db.insert("effectors", make_tuple(eff_id="e1", tool="t"))
        with pytest.raises(IntegrityError):
            db.insert("effectors", make_tuple(eff_id="e1", tool="t2"))

    def test_get_by_key_and_surrogate(self, db):
        obj = db.insert("effectors", make_tuple(eff_id="e1", tool="t"))
        assert db.get("effectors", "e1") is obj
        assert db.relation("effectors").get_by_surrogate(obj.surrogate) is obj

    def test_get_missing_raises(self, db):
        with pytest.raises(IntegrityError):
            db.get("effectors", "missing")

    def test_dangling_reference_rejected_at_insert(self, db):
        from repro.nf2.values import Reference

        bad = Reference("effectors", "@effectors:999")
        with pytest.raises(SchemaError):
            db.insert(
                "cells",
                make_tuple(
                    cell_id="c1",
                    c_objects=make_set(),
                    robots=__import__("repro.nf2", fromlist=["make_list"]).make_list(
                        make_tuple(
                            robot_id="r1", trajectory="t", effectors=make_set(bad)
                        )
                    ),
                ),
            )

    def test_dereference(self, db):
        obj = db.insert("effectors", make_tuple(eff_id="e1", tool="t"))
        assert db.dereference(obj.reference()) is obj

    def test_object_count(self, db):
        db.insert("effectors", make_tuple(eff_id="e1", tool="t"))
        db.insert("effectors", make_tuple(eff_id="e2", tool="t"))
        assert db.object_count() == 2


class TestKeyText:
    """``has_key_text`` answers whether a key spelt as resource tuples
    spell it (``str(key)``) belongs to a stored object."""

    def _relation(self, domain, keys):
        database = Database()
        relation = database.create_relation(
            RelationSchema(
                "things", TupleType([("t_id", AtomicType(domain))])
            )
        )
        for key in keys:
            relation.insert(make_tuple(t_id=key))
        return relation

    def test_str_keys(self):
        relation = self._relation("str", ["a", "7"])
        assert relation.has_key_text("a") and relation.has_key_text("7")
        assert not relation.has_key_text("b")

    def test_int_keys_match_their_exact_spelling(self):
        relation = self._relation("int", [7, -3])
        assert relation.has_key_text("7") and relation.has_key_text("-3")
        for text in ("07", " 7", "7.0", "x", "8", "+7"):
            assert not relation.has_key_text(text), text

    def test_float_keys_may_hold_ints(self):
        relation = self._relation("float", [1.5, 2])
        assert relation.has_key_text("1.5") and relation.has_key_text("2")
        for text in ("1.50", "2.0", "nan"):
            assert not relation.has_key_text(text), text

    def test_bool_keys(self):
        relation = self._relation("bool", [True])
        assert relation.has_key_text("True")
        assert not relation.has_key_text("False")
        assert not relation.has_key_text("1")

    def test_follows_inserts_deletes_and_key_changes(self):
        relation = self._relation("int", [1])
        relation.insert(make_tuple(t_id=2))
        assert relation.has_key_text("2")
        relation.delete(2)
        assert not relation.has_key_text("2")
        obj = relation.get(1)
        relation.replace(type(obj)(obj.relation, obj.surrogate, 5, make_tuple(t_id=5)))
        assert relation.has_key_text("5") and not relation.has_key_text("1")


class TestDelete:
    def test_delete_unreferenced(self, db):
        db.insert("effectors", make_tuple(eff_id="e1", tool="t"))
        db.relation("effectors").delete("e1")
        assert not db.relation("effectors").contains_key("e1")

    def test_delete_referenced_refused(self):
        database, _ = build_cells_database(figure7=True)
        with pytest.raises(IntegrityError):
            database.relation("effectors").delete("e1")

    def test_delete_referenced_with_force(self):
        database, _ = build_cells_database(figure7=True)
        database.relation("effectors").delete("e1", force=True)
        assert not database.relation("effectors").contains_key("e1")

    def test_delete_missing_raises(self, db):
        with pytest.raises(IntegrityError):
            db.relation("effectors").delete("nope")


class TestReplace:
    def test_replace_updates_data(self):
        database, _ = build_cells_database(figure7=True)
        relation = database.relation("effectors")
        obj = relation.get("e1")
        replacement = obj.snapshot()
        replacement.root["tool"] = "new-tool"
        relation.replace(replacement)
        assert relation.get("e1").root["tool"] == "new-tool"

    def test_replace_can_change_key(self):
        database, _ = build_cells_database(figure7=True)
        relation = database.relation("effectors")
        obj = relation.get("e3")
        replacement = obj.snapshot()
        replacement.root["eff_id"] = "e3b"
        relation.replace(replacement)
        assert relation.contains_key("e3b")
        assert not relation.contains_key("e3")
        # surrogate (and hence references) unchanged
        assert relation.get("e3b").surrogate == obj.surrogate

    def test_replace_rejects_key_collision(self):
        database, _ = build_cells_database(figure7=True)
        relation = database.relation("effectors")
        replacement = relation.get("e1").snapshot()
        replacement.root["eff_id"] = "e2"
        with pytest.raises(IntegrityError):
            relation.replace(replacement)

    def test_replace_validates(self):
        database, _ = build_cells_database(figure7=True)
        relation = database.relation("effectors")
        replacement = relation.get("e1").snapshot()
        replacement.root["tool"] = 42
        with pytest.raises(SchemaError):
            relation.replace(replacement)


class TestReverseScan:
    def test_scan_finds_referencing_occurrences(self):
        database, _ = build_cells_database(figure7=True)
        e2 = database.get("effectors", "e2")
        hits = database.scan_referencing(e2.reference())
        # e2 is referenced from robot r1 and from robot r2 of cell c1
        assert [obj.key for obj, _ in hits] == ["c1", "c1"]
        from repro.nf2 import format_path

        assert sorted(format_path(steps) for _, steps in hits) == [
            "robots[r1].effectors",
            "robots[r2].effectors",
        ]

    def test_scan_cost_accumulates(self):
        database, _ = build_cells_database(figure7=True)
        database.reset_scan_cost()
        e1 = database.get("effectors", "e1")
        database.scan_referencing(e1.reference())
        # every object in the database is visited: 3 effectors + 1 cell
        assert database.scan_cost == 4

    def test_reset_scan_cost(self):
        database, _ = build_cells_database(figure7=True)
        database.scan_referencing(database.get("effectors", "e1").reference())
        cost = database.reset_scan_cost()
        assert cost > 0
        assert database.scan_cost == 0

    def test_scan_no_hits(self, db):
        obj = db.insert("effectors", make_tuple(eff_id="e9", tool="t"))
        assert db.scan_referencing(obj.reference()) == []


class TestResolve:
    def test_resolve_component(self):
        database, _ = build_cells_database(figure7=True)
        relation = database.relation("cells")
        cell = relation.get("c1")
        robot = relation.resolve(cell, parse_path("robots[r1]"))
        assert robot["trajectory"] == "tr1"

    def test_resolve_type(self):
        database, _ = build_cells_database(figure7=True)
        t = database.relation("cells").resolve_type(parse_path("robots[*].effectors"))
        assert isinstance(t, SetType)
