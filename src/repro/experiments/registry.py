"""Experiment registry: the one declaration of each experiment.

``EXPERIMENTS`` maps each claim of the paper to an experiment (E1-E9, plus
the ablation A1).  An entry holds the runner, the one parameter set it runs
with and the prose of its ``EXPERIMENTS.md`` section: the title, the paper's
claim, the expected shape and what the run measured.  ``repro experiments``,
``examples/reproduce_paper.py``, ``tools/generate_experiments_md.py`` and the
tier-1 suite ``tests/experiments`` all run an entry through
:meth:`ExperimentSpec.run`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.experiments.attacks import (
    run_e1_bucketization_attack,
    run_e2_damiani_attack,
    run_e3_dph_indistinguishability,
    run_e4_theorem21,
)
from repro.experiments.inference import (
    run_e5_hospital_inference,
    run_e6_active_adversary,
)
from repro.experiments.performance import (
    run_a1_variable_length,
    run_e7_false_positives,
    run_e8_throughput,
    run_e9_storage_overhead,
)


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: its runner, its parameters and its document section."""

    identifier: str
    title: str
    claim: str
    expected: str
    measured: str
    runner: Callable
    parameters: dict

    def run(self):
        """Run the experiment with its registered parameters."""
        return self.runner(**self.parameters)


EXPERIMENTS: tuple[ExperimentSpec, ...] = (
    ExperimentSpec(
        "E1",
        "Salary-pair attack vs bucketization (paper §1)",
        "The two-salary-table adversary determines \"with high probability\" which table was "
        "encrypted under the Hacıgümüş bucketization scheme, because bucket identifiers are "
        "encrypted deterministically.",
        "Success probability ≈ 1 for every reasonable bucket count; the paper's own construction "
        "reduces the same adversary to a coin flip (advantage ≈ 0).",
        "Matches. Bucketization is broken outright for 4–256 buckets; the SWP-backed construction "
        "shows advantage statistically indistinguishable from 0.",
        run_e1_bucketization_attack,
        {"trials": 120, "bucket_counts": (4, 16, 64, 256)},
    ),
    ExperimentSpec(
        "E2",
        "Salary-pair attack vs the Damiani hashed index (paper §1)",
        "\"Similar attacks work on the scheme of Damiani et al.\" — the truncated keyed-hash index "
        "is deterministic, so equality of values leaks.",
        "Near-perfect success once the two salaries are unlikely to collide in the index (≥ 16 hash "
        "values); still well above 1/2 even for the coarsest index.",
        "Matches. Success grows from 0.750 at 2 hash values to 1.0 at 256; plain deterministic "
        "encryption (no collisions) is broken with probability 1.",
        run_e2_damiani_attack,
        {"trials": 120, "hash_value_counts": (2, 16, 64, 256)},
    ),
    ExperimentSpec(
        "E3",
        "Indistinguishability of the construction at q = 0 (paper §3)",
        "Under the relaxation q = 0 (Eve stores data but never sees live queries), the "
        "searchable-encryption construction is secure in a rigorous sense.",
        "Every implemented q = 0 distinguisher — including the one that breaks bucketization — "
        "ends with advantage ≈ 0 against both backends.",
        "Matches. All advantages lie within sampling noise of 0 (|adv| ≤ 0.22 at 150 trials) and "
        "none of the adversaries crosses the 'broken' threshold.",
        run_e3_dph_indistinguishability,
        {"trials": 150},
    ),
    ExperimentSpec(
        "E4",
        "Theorem 2.1: every database PH falls once q > 0",
        "\"Any database PH (K, E, Eq, D) is insecure in the sense of Definition 2.1 if q > 0\", "
        "actively or passively.",
        "The generic result-size adversaries win with probability ≈ 1 against every scheme "
        "(including the paper's construction) at q = 1, and degrade to guessing at q = 0.",
        "Matches — success 1.0 for every scheme at q = 1 (active and passive); at q = 0 it lies "
        "between 0.400 and 0.625, within sampling noise of a coin flip at 40 trials.",
        run_e4_theorem21,
        {"trials": 40, "table_size": 8},
    ),
    ExperimentSpec(
        "E5",
        "Passive hospital inference (paper §2)",
        "From the sizes of four query results and their intersections, Eve \"can infer the ratio "
        "of lethal to successful outcomes in hospital 1\", knowing only the schema and rough "
        "priors (flows 0.2/0.3/0.5, outcomes 0.08/0.92).",
        "Query identification succeeds essentially always once the database has a few hundred "
        "patients, and the recovered fatality ratios equal the ground truth (the construction "
        "introduces no false positives at default parameters).",
        "Matches — identification rate 1.0 and zero error at 500–8000 patients, against the "
        "paper's own (q = 0 secure) construction.",
        run_e5_hospital_inference,
        {"sizes": (500, 2000, 8000), "trials": 3},
    ),
    ExperimentSpec(
        "E6",
        "Active adversary locates a known patient (\"John\", paper §2)",
        "With a query-encryption oracle, Eve determines John's hospital by intersecting four "
        "query results, and \"analogously, she can find his status\".",
        "Success probability 1 with a single-digit number of oracle queries, independent of the "
        "database size.",
        "Matches — hospital and outcome recovered in every trial, with a mean of 3.7–5.0 oracle "
        "queries per trial.",
        run_e6_active_adversary,
        {"sizes": (500, 2000, 8000), "trials": 3, "oracle_budget": 6},
    ),
    ExperimentSpec(
        "E7",
        "False positives of the searchable scheme (paper §3)",
        "The SWP scheme \"sometimes return[s] false positives … As the error rate is relatively "
        "small for all practical purposes, this does not affect the efficiency of our "
        "construction.\"",
        "Observed false-positive rate ≈ 2^(−8m) for an m-byte check value; already at m = 2 "
        "bytes no false positives are observed at this sample size.",
        "Matches — 127 false positives in 30 000 words at m = 1 (0.0042 ≈ 1/256), none at "
        "m ≥ 2. The client-side filter removes them without affecting result correctness (E8's "
        "'fps' column and the homomorphism tests).",
        run_e7_false_positives,
        {"check_lengths": (1, 2, 3), "words_per_setting": 30000},
    ),
    ExperimentSpec(
        "E8",
        "End-to-end cost of an outsourced exact select",
        "Implicit: the construction's overhead is a constant factor — encryption, query "
        "encryption, server search and client decryption all scale linearly in the table size.",
        "Linear growth for every phase and every scheme; the searchable backends cost more than "
        "the plaintext floor; the lossy baselines pay instead with false positives the client "
        "must filter.",
        "Matches. Every scheme's encryption and server scan grow roughly linearly from 100 to "
        "5000 tuples, nowhere near quadratically, and the SWP construction encrypts more slowly "
        "than plaintext. The four "
        "`ms` columns are wall-clock on the host that wrote this file and are not compared; the "
        "counts are. `encrypt ms` is the fastest of three runs per scheme, taken in rounds over "
        "the schemes. At n = 5000 bucketization returns 510 false positives and the hashed "
        "index 233, while the construction returns none.",
        run_e8_throughput,
        {"sizes": (100, 1000, 5000)},
    ),
    ExperimentSpec(
        "E9",
        "Ciphertext expansion",
        "Implicit in the construction: storage overhead is a per-tuple constant — fixed-width "
        "searchable words plus an authenticated payload.",
        "Expansion factors independent of table size; plaintext passthrough is the floor; the "
        "index backend pays extra for its per-document secure index.",
        "Matches — expansion ≈ 6.6–7.0× (SWP), ≈ 10.4–10.9× (index), ≈ 4.9–5.2× "
        "(bucketization / hashed index), ≈ 2.5× (plaintext, dominated by the tuple-id and field "
        "duplication), constant across 200 vs 2000 tuples.",
        run_e9_storage_overhead,
        {"sizes": (200, 2000)},
    ),
    ExperimentSpec(
        "A1",
        "Ablation: variable-length attribute words (full-version optimization)",
        "The full version describes \"straight-forward optimizations such as attributes of "
        "variable length\" over the poster's single global word width.",
        "Identical homomorphism behaviour with meaningfully smaller ciphertext on schemas with "
        "one wide attribute.",
        "Matches — on a Doc(title[40], category[6], year[4]) schema the variable layout stores "
        "34 % fewer bytes at both sizes, with the homomorphism property preserved. The two `ms` "
        "columns are wall-clock on the host that wrote this file and are not compared.",
        run_a1_variable_length,
        {"sizes": (500, 2000)},
    ),
)
