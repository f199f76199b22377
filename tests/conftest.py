"""Shared fixtures: published example data, dataset builders and an
in-process CLI runner."""

import contextlib
import io
from typing import NamedTuple

import pytest

from impact_vitality import (
    AuthorKey,
    CitationDataset,
    CitingRecord,
    Publication,
    TargetAuthor,
)
from impact_vitality.cli import main

# Published 20-year citing-count columns for one real author (PhD 1988),
# under three filter regimes, with the printed 2-decimal IV values for the
# growing window anchored at 1988 (minimum length 4 -> first value in 1991).
TABLE5_COUNTS = {
    "all": {
        1988: 82, 1989: 76, 1990: 77, 1991: 87, 1992: 120, 1993: 126,
        1994: 125, 1995: 164, 1996: 153, 1997: 188, 1998: 211, 1999: 306,
        2000: 421, 2001: 406, 2002: 398, 2003: 402, 2004: 373, 2005: 341,
        2006: 355, 2007: 316,
    },
    "excl_citing_only_top": {
        1988: 82, 1989: 76, 1990: 77, 1991: 87, 1992: 120, 1993: 126,
        1994: 125, 1995: 164, 1996: 153, 1997: 188, 1998: 211, 1999: 291,
        2000: 346, 2001: 332, 2002: 332, 2003: 344, 2004: 322, 2005: 299,
        2006: 314, 2007: 285,
    },
    "excl_self_citing": {
        1988: 82, 1989: 75, 1990: 76, 1991: 84, 1992: 116, 1993: 125,
        1994: 121, 1995: 160, 1996: 149, 1997: 183, 1998: 201, 1999: 296,
        2000: 416, 2001: 402, 2002: 395, 2003: 397, 2004: 363, 2005: 335,
        2006: 351, 2007: 307,
    },
}

TABLE5_PRINTED_IV = {
    "all": {
        1991: 1.04, 1992: 1.20, 1993: 1.23, 1994: 1.21, 1995: 1.32,
        1996: 1.29, 1997: 1.36, 1998: 1.42, 1999: 1.62, 2000: 1.84,
        2001: 1.82, 2002: 1.76, 2003: 1.71, 2004: 1.62, 2005: 1.52,
        2006: 1.49, 2007: 1.40,
    },
    "excl_citing_only_top": {
        1991: 1.04, 1992: 1.20, 1993: 1.23, 1994: 1.21, 1995: 1.32,
        1996: 1.29, 1997: 1.36, 1998: 1.42, 1999: 1.59, 2000: 1.70,
        2001: 1.67, 2002: 1.63, 2003: 1.61, 2004: 1.54, 2005: 1.46,
        2006: 1.44, 2007: 1.37,
    },
    "excl_self_citing": {
        1991: 1.03, 1992: 1.19, 1993: 1.23, 1994: 1.20, 1995: 1.31,
        1996: 1.28, 1997: 1.36, 1998: 1.40, 1999: 1.61, 2000: 1.85,
        2001: 1.83, 2002: 1.77, 2003: 1.72, 2004: 1.62, 2005: 1.53,
        2006: 1.49, 2007: 1.40,
    },
}

# Simulated 5-year windows (newest year first) with their 1-decimal values.
SIMULATED_CASES = {
    "A": ([5, 5, 5, 5, 5], 1.0),
    "B": ([5, 4, 3, 2, 1], 1.5),
    "C": ([1, 2, 3, 4, 5], 0.5),
    "D": ([10, 8, 6, 4, 2], 1.5),
    "E": ([1, 2, 3, 2, 1], 0.8),
    "F": ([3, 2, 1, 2, 3], 1.1),
}


@pytest.fixture
def table5_counts():
    return TABLE5_COUNTS


@pytest.fixture
def table5_printed_iv():
    return TABLE5_PRINTED_IV


def table5_dataset():
    """The Table 5 author as 4,727 citing records of two 1985 publications,
    "top" and "other", with the career starting in 1988. Year Y has
    TABLE5_COUNTS["all"][Y] records: as many as the self-citation column
    lacks have the target as an author, as many as the cites-only-top column
    lacks cite "top" alone, and the rest cite both. No record is removed by
    both filters, as the paper gives no column for the two together, and
    "top" is the most-cited publication."""
    records = []
    for year, total in TABLE5_COUNTS["all"].items():
        self_citing = total - TABLE5_COUNTS["excl_self_citing"][year]
        top_only = total - TABLE5_COUNTS["excl_citing_only_top"][year]
        for i in range(total):
            cited = {"top"} if self_citing <= i < self_citing + top_only else {"top", "other"}
            author = ("smith", "ja") if i < self_citing else ("jones", "k")
            records.append((f"c{year}-{i}", year, cited, [author]))
    target = make_target("smith", "ja", career_start_year=1988)
    return make_dataset([("top", 1985), ("other", 1985)], records, target=target)


def make_target(surname="smith", initials="ja", variants=(), career_start_year=None):
    return TargetAuthor(
        key=AuthorKey(surname, initials),
        name_variants=frozenset(AuthorKey(s, i) for s, i in variants),
        career_start_year=career_start_year,
    )


def make_dataset(publications, citing_records, target=None):
    """Build a dataset from (id, year[, doc_type]) pub tuples and
    (id, year, cited_ids[, authors[, doc_type]]) record tuples."""
    pubs = []
    for spec in publications:
        pub_id, year = spec[0], spec[1]
        doc_type = spec[2] if len(spec) > 2 else "article"
        pubs.append(Publication(id=pub_id, year=year, doc_type=doc_type))
    recs = []
    for spec in citing_records:
        rec_id, year, cited = spec[0], spec[1], spec[2]
        authors = spec[3] if len(spec) > 3 else ()
        doc_type = spec[4] if len(spec) > 4 else "article"
        recs.append(
            CitingRecord(
                id=rec_id,
                year=year,
                authors=frozenset(AuthorKey(s, i) for s, i in authors),
                cited_target_pub_ids=frozenset(cited),
                doc_type=doc_type,
            )
        )
    return CitationDataset(
        target=target or make_target(),
        publications=tuple(pubs),
        citing_records=tuple(recs),
    )


class CliRun(NamedTuple):
    status: int
    out: str
    err: str
    writes: int  # calls to stdout's `write`


class _CountingStdout(io.StringIO):
    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def run_main(argv) -> CliRun:
    """The exit status, stdout, stderr and number of stdout writes of one
    in-process run of `main(argv)`."""
    out, err = _CountingStdout(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    return CliRun(status, out.getvalue(), err.getvalue(), out.writes)
