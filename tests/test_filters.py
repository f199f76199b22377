import itertools

import pytest

from impact_vitality import (
    AuthorKey,
    FilterSet,
    apply_filters,
    citation_counts_per_publication,
    cites_only,
    is_self_citing,
    most_cited_publication,
    yearly_citing_counts,
)

from conftest import make_dataset, make_target


class TestIsSelfCiting:
    def test_exact_key_match(self):
        ds = make_dataset(
            [("p1", 2000)], [("c1", 2003, {"p1"}, [("smith", "ja")])]
        )
        assert is_self_citing(ds.citing_records[0], ds.target)

    def test_name_variant_match(self):
        target = make_target("smith", "ja", variants=[("smith", "j")])
        ds = make_dataset(
            [("p1", 2000)], [("c1", 2003, {"p1"}, [("Smith", "J.")])], target=target
        )
        assert is_self_citing(ds.citing_records[0], ds.target)

    def test_disjoint_authors(self):
        ds = make_dataset(
            [("p1", 2000)], [("c1", 2003, {"p1"}, [("jones", "k")])]
        )
        assert not is_self_citing(ds.citing_records[0], ds.target)


class TestCitesOnly:
    def test_exactly_one(self):
        ds = make_dataset([("pA", 2000)], [("c1", 2003, {"pA"})])
        assert cites_only(ds.citing_records[0], "pA")

    def test_cites_more_than_one(self):
        ds = make_dataset([("pA", 2000), ("pB", 2001)], [("c1", 2003, {"pA", "pB"})])
        assert not cites_only(ds.citing_records[0], "pA")

    def test_cites_other(self):
        ds = make_dataset([("pA", 2000), ("pB", 2001)], [("c1", 2003, {"pB"})])
        assert not cites_only(ds.citing_records[0], "pA")

    def test_implies_membership(self):
        ds = make_dataset(
            [("pA", 2000), ("pB", 2001)],
            [("c1", 2003, {"pA"}), ("c2", 2004, {"pA", "pB"}), ("c3", 2005, {"pB"})],
        )
        for rec in ds.citing_records:
            for pub in ds.publications:
                if cites_only(rec, pub.id):
                    assert pub.id in rec.cited_target_pub_ids


class TestMostCitedPublication:
    def test_unique_max(self):
        ds = make_dataset(
            [("pA", 2000), ("pB", 2001)],
            [(f"c{i}", 2003, {"pA"}) for i in range(5)]
            + [(f"d{i}", 2003, {"pB"}) for i in range(2)],
        )
        assert most_cited_publication(ds) == "pA"

    def test_tie_broken_by_older_year(self):
        ds = make_dataset(
            [("pNew", 2005), ("pOld", 2000)],
            [("c1", 2006, {"pNew"}), ("c2", 2006, {"pOld"})],
        )
        assert most_cited_publication(ds) == "pOld"

    def test_tie_broken_by_id(self):
        ds = make_dataset(
            [("pB", 2000), ("pA", 2000)],
            [("c1", 2006, {"pB"}), ("c2", 2006, {"pA"})],
        )
        assert most_cited_publication(ds) == "pA"

    def test_single_publication(self):
        ds = make_dataset([("pA", 2000)], [("c1", 2003, {"pA"})])
        assert most_cited_publication(ds) == "pA"

    def test_rejects_empty(self):
        ds = make_dataset([("pA", 2000)], [])
        with pytest.raises(ValueError):
            most_cited_publication(ds)


def build_mixed_dataset():
    target = make_target("smith", "ja")
    pubs = [("pA", 2000, "article"), ("pB", 2001, "review")]
    recs = []
    for i in range(20):
        authors = [("smith", "ja")] if i % 5 == 0 else [("jones", "k")]
        cited = {"pA"} if i % 3 == 0 else ({"pA", "pB"} if i % 3 == 1 else {"pB"})
        doc_type = "article" if i % 2 == 0 else "review"
        recs.append((f"c{i}", 2003 + i % 4, cited, authors, doc_type))
    return make_dataset(pubs, recs, target=target)


class TestApplyFilters:
    def test_empty_filter_is_identity(self):
        ds = build_mixed_dataset()
        assert apply_filters(ds, FilterSet()) == list(ds.citing_records)

    def test_count_arithmetic_self_citations(self):
        # 316 records of which 9 self-citing -> 307 survivors
        target = make_target("smith", "ja")
        recs = [
            (
                f"c{i}",
                2007,
                {"p1"},
                [("smith", "ja")] if i < 9 else [("jones", "k")],
            )
            for i in range(316)
        ]
        ds = make_dataset([("p1", 1999)], recs, target=target)
        surviving = apply_filters(ds, FilterSet(exclude_self_citations=True))
        assert len(surviving) == 307
        assert yearly_citing_counts(ds, FilterSet(exclude_self_citations=True)).counts == {2007: 307}

    def test_count_arithmetic_cites_only(self):
        # 316 records of which 31 cite only the most-cited paper -> 285
        recs = [
            (f"c{i}", 2007, {"pTop"} if i < 31 else {"pTop", "pOther"})
            for i in range(316)
        ]
        ds = make_dataset([("pTop", 1999), ("pOther", 2001)], recs)
        assert most_cited_publication(ds) == "pTop"
        surviving = apply_filters(ds, FilterSet(exclude_citing_only="pTop"))
        assert len(surviving) == 285

    def test_unresolvable_citing_only_rejected(self):
        ds = build_mixed_dataset()
        with pytest.raises(ValueError):
            apply_filters(ds, FilterSet(exclude_citing_only="ghost"))

    def test_matches_brute_force_predicates(self):
        ds = build_mixed_dataset()
        for exclude_self, citing_only in itertools.product([False, True], [None, "pA"]):
            fs = FilterSet(exclude_self_citations=exclude_self, exclude_citing_only=citing_only)
            expected = []
            for rec in ds.citing_records:
                ok = True
                if fs.exclude_self_citations and rec.authors & ds.target.name_variants:
                    ok = False
                if fs.exclude_citing_only is not None and rec.cited_target_pub_ids == {
                    fs.exclude_citing_only
                }:
                    ok = False
                if ok:
                    expected.append(rec)
            assert apply_filters(ds, fs) == expected

    def test_adding_clause_never_enlarges(self):
        ds = build_mixed_dataset()
        weak = apply_filters(ds, FilterSet(exclude_self_citations=True))
        strong = apply_filters(
            ds, FilterSet(exclude_self_citations=True, exclude_citing_only="pA")
        )
        assert set(strong) <= set(weak) <= set(ds.citing_records)

    def test_clause_order_irrelevant(self):
        # conjunction is symmetric by construction; spot-check via two routes
        ds = build_mixed_dataset()
        both = apply_filters(
            ds, FilterSet(exclude_self_citations=True, exclude_citing_only="pA")
        )
        route_a = apply_filters(ds, FilterSet(exclude_self_citations=True))
        route_b = apply_filters(ds, FilterSet(exclude_citing_only="pA"))
        assert both == [rec for rec in route_a if rec in route_b]

    def test_records_sharing_an_id_are_counted_apart(self):
        # Nothing but validate_dataset rejects repeated ids, so the reductions
        # must count the surviving records themselves, not their ids.
        ds = make_dataset(
            [("p1", 2000)],
            [("c1", 2001, {"p1"}, [("smith", "ja")]), ("c1", 2002, {"p1"}, [("jones", "k")])],
        )
        fs = FilterSet(exclude_self_citations=True)
        assert yearly_citing_counts(ds, fs).counts == {2002: 1}
        assert citation_counts_per_publication(ds, fs) == {"p1": 1}
        assert apply_filters(ds, fs) == [ds.citing_records[1]]
