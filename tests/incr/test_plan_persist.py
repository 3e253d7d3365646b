"""What is left of on-disk plan persistence: old ``plan`` rows.

Compiled plans are no longer written to an `IncrStore`; plans live only
in the in-memory `repro.machine.absplan.PLAN_CACHE`.  Store files from
releases that persisted plans (store schema 1, rows of kind ``plan``)
must open as a clean miss: the schema bump drops and recreates them,
so no stale plan row survives to be counted or served.
"""

import sqlite3

from repro.incr.store import KIND_SUB, STORE_SCHEMA, IncrStore

#: The last store schema whose files could hold ``plan`` rows, and the
#: cfg string those rows were written under.
PLAN_ROW_SCHEMA = 1
PLAN_ROW_CFG = "plan/1/2/1"


class TestTier:
    def test_codec_schema_bump_is_a_clean_miss(self, tmp_path):
        path = str(tmp_path / "s.sqlite")
        with IncrStore(path) as store:
            store.put(PLAN_ROW_CFG, "plan", "subject", "anf", "{}")
            store.put(PLAN_ROW_CFG, "plan", "subject", "cps", "{}")
            store.put("cfg", KIND_SUB, "s", "j", "old")
            generation = store.generation()
        # Stamp the file with the header a plan-persisting release wrote.
        db = sqlite3.connect(path)
        with db:
            db.execute(
                "UPDATE meta SET value=? WHERE key='schema'",
                (str(PLAN_ROW_SCHEMA),),
            )
        db.close()
        assert STORE_SCHEMA > PLAN_ROW_SCHEMA
        with IncrStore(path) as store:
            assert store.get(PLAN_ROW_CFG, "plan", "subject", "anf") is None
            assert store.get("cfg", KIND_SUB, "s", "j") is None
            summary = store.summary()
            assert summary["schema"] == STORE_SCHEMA
            assert summary["entries"] == 0
            assert "plan" not in summary["by_kind"]
            assert store.generation() > generation
