"""Unit tests for the organized-information layer."""

import pytest

from repro.annotators import ContactRecord, ScopeEntry
from repro.core import OrganizedInformation
from repro.core.query_analyzer import SynopsisSearch
from repro.corpus import build_default_taxonomy
from repro.errors import IntegrityError


@pytest.fixture
def organized():
    info = OrganizedInformation()
    info.store_deal_context(
        "d1",
        {
            "Deal Name": "DEAL A",
            "Customer": "ABC",
            "Industry": "Insurance",
            "Out Sourcing Consultant": "TPI",
            "Contract Term Start": "2006-01-05",
            "Term Duration Months": "60",
            "Total Contract Value": "50 to 100M",
            "International": "Y",
        },
    )
    info.store_scopes(
        "d1",
        [
            ScopeEntry("Customer Service Center", "End User Services",
                       12.0, 4),
            ScopeEntry("WAN", "Network Services", 6.0, 2),
        ],
    )
    info.store_contacts(
        "d1",
        [
            ContactRecord("d1", "Sam White", "sam.white@abc.com",
                          "+1-914-555-0001", "ABC",
                          "Client Solution Executive", "core deal team",
                          mention_count=3, validated=True),
        ],
    )
    info.store_win_strategies("d1", ["price to win"])
    info.store_technologies("d1", [("data replication",
                                    "Storage Management Services")])
    info.store_client_references("d1", ["similar Insurance engagement"])
    return info


class TestPopulation:
    def test_deal_row(self, organized):
        row = organized.deal_row("d1")
        assert row["name"] == "DEAL A"
        assert row["term_months"] == 60
        assert row["international"] is True
        assert str(row["contract_start"]) == "2006-01-05"

    def test_missing_deal_row(self, organized):
        assert organized.deal_row("nope") is None

    def test_scopes_ordered_by_rank(self, organized):
        scopes = organized.scopes_of("d1")
        assert [s["canonical"] for s in scopes] == [
            "Customer Service Center", "WAN",
        ]
        assert scopes[0]["rank"] == 0

    def test_contacts(self, organized):
        contacts = organized.contacts_of("d1")
        assert contacts[0]["name"] == "Sam White"
        assert contacts[0]["validated"] is True

    def test_lists(self, organized):
        assert organized.strategies_of("d1") == ["price to win"]
        assert organized.references_of("d1") == [
            "similar Insurance engagement"
        ]
        assert organized.technologies_of("d1")[0]["term"] == (
            "data replication"
        )

    def test_deal_ids(self, organized):
        assert organized.deal_ids() == ["d1"]

    def test_fk_enforced_on_children(self, organized):
        with pytest.raises(IntegrityError):
            organized.store_scopes(
                "ghost", [ScopeEntry("WAN", "Network Services", 5.0, 1)]
            )

    def test_sparse_context_allowed(self, organized):
        # Badly-maintained repositories leave fields empty.
        organized.store_deal_context("d2", {})
        row = organized.deal_row("d2")
        assert row["name"] == "d2"
        assert row["customer"] is None


class TestWrappingLoadedDatabase:
    def test_id_counters_continue_after_stored_rows(self, organized):
        # A loaded synopsis database arrives with rows; new ids must not
        # restart at 1 and collide with them.
        wrapped = OrganizedInformation(db=organized.db)
        wrapped.store_deal_context("d2", {"Deal Name": "DEAL B"})
        wrapped.store_contacts("d2", [
            ContactRecord("d2", "Jane Doe", "jane.doe@abc.com", "", "ABC",
                          "Technical Solution Architect", "core deal team"),
        ])
        wrapped.store_win_strategies("d2", ["incumbent advantage"])
        wrapped.store_technologies("d2", [("VoIP", "Network Services")])
        wrapped.store_client_references("d2", ["bank reference"])
        for table, column in (
            ("contacts", "contact_id"),
            ("win_strategies", "strategy_id"),
            ("technologies", "technology_id"),
            ("client_references", "reference_id"),
        ):
            assert organized.db.execute(
                f"SELECT {column} FROM {table} ORDER BY {column}"
            ).column(column) == [1, 2], table


class TestTowerCriterionPlan:
    def test_tower_sql_served_by_in_list_index(self, organized,
                                               monkeypatch):
        search = SynopsisSearch(organized, build_default_taxonomy())
        issued = []
        execute = organized.db.execute

        def spy(sql, params=()):
            issued.append((sql, list(params)))
            return execute(sql, params)

        monkeypatch.setattr(organized.db, "execute", spy)
        assert "d1" in search._tower_scores("End User Services")
        [(sql, params)] = issued
        assert " IN (" in sql
        plan = organized.db.explain(sql, params).column("plan")
        assert any(
            line.startswith("index in-list ix_scopes_canonical")
            for line in plan
        ), plan
        assert "full scan deal_scopes" not in plan
