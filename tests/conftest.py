"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro import native
from repro.core import SearchableSelectDph
from repro.crypto.keys import SecretKey
from repro.crypto.rng import DeterministicRng
from repro.relational import Relation, RelationSchema
from repro.schemes import (
    BucketizationConfig,
    DamianiDph,
    DeterministicDph,
    HacigumusDph,
    PlaintextDph,
)
from repro.workloads import EmployeeWorkload, HospitalWorkload


@pytest.fixture
def rng():
    """A deterministic randomness source shared by a test."""
    return DeterministicRng(1234)


@pytest.fixture
def secret_key(rng):
    """A reproducible 256-bit secret key."""
    return SecretKey.generate(rng=rng)


@pytest.fixture
def employee_schema():
    """The paper's employee schema (slightly widened)."""
    return RelationSchema.parse("Emp(name:string[14], dept:string[5], salary:int[6])")


@pytest.fixture
def employee_relation(employee_schema):
    """A small employee relation mirroring the paper's Section 3 example."""
    return Relation.from_rows(
        employee_schema,
        [
            ("Montgomery", "HR", 7500),
            ("Smith", "IT", 5200),
            ("Jones", "HR", 7500),
            ("Brown", "SALES", 4100),
            ("Adams", "IT", 6100),
        ],
    )


@pytest.fixture
def hospital_workload():
    """A small hospital statistics database with the paper's marginals."""
    return HospitalWorkload.generate(300, target_name="John", seed=99)


@pytest.fixture
def employee_workload():
    """A medium synthetic employee workload."""
    return EmployeeWorkload.generate(120, seed=5)


@pytest.fixture
def swp_dph(employee_schema, secret_key, rng):
    """The paper's construction with the SWP backend."""
    return SearchableSelectDph(employee_schema, secret_key, backend="swp", rng=rng)


@pytest.fixture
def index_dph(employee_schema, secret_key, rng):
    """The paper's construction with the secure-index backend."""
    return SearchableSelectDph(employee_schema, secret_key, backend="index", rng=rng)


@pytest.fixture
def all_schemes(employee_schema, secret_key, rng):
    """One instance of every implemented database PH over the employee schema."""
    config = BucketizationConfig.uniform(
        employee_schema, num_buckets=16, minimum=0, maximum=10000
    )
    return [
        SearchableSelectDph(employee_schema, secret_key, backend="swp", rng=rng),
        SearchableSelectDph(employee_schema, secret_key, backend="index", rng=rng),
        HacigumusDph(employee_schema, secret_key, config=config, rng=rng),
        DamianiDph(employee_schema, secret_key, rng=rng),
        DeterministicDph(employee_schema, secret_key, rng=rng),
        PlaintextDph(employee_schema, secret_key, rng=rng),
    ]


@pytest.fixture(params=["native", "python"], scope="module")
def match_kernel(request):
    """Run a module's tests once per kernel path: the C kernel and the Python references.

    All the native functions switch together.  On the result path: the SWP
    check (``swp_select`` against ``SwpMatcher.select``'s loop), the payload
    opener (``open_payloads`` against ``SymmetricCipher.decrypt_bytes`` per
    row), the tuple walk (``decode_tuples`` against
    ``decode_encrypted_relation``'s Python walk) and the row decode
    (``decode_rows`` against ``TupleCodec.decode`` per row).  On the write
    path: the SWP sealer (``swp_encrypt_words`` against
    ``SwpScheme._encrypt_word`` / ``_pre_encrypt`` per word; a scheme keys
    itself into the kernel when it is built, so build it inside the test)
    and the payload sealer (``seal_payloads`` against
    ``SymmetricCipher._seal`` per row).
    The Python run sets the loaded kernel to ``None``, which is what a host
    without a compiler gets; the native run is skipped on such a host.
    """
    with pytest.MonkeyPatch.context() as patch:
        if request.param == "python":
            patch.setattr(native, "kernel", None)
        elif native.kernel is None:
            pytest.skip("the native kernel did not build on this host")
        yield request.param
