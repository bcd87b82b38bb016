"""Extension — micro-benchmarks of the real per-record operations.

Measures the actual Python implementations of the operations the cost
model charges: AES-CBC encryption, leaf-offset computation, O(1) AL/ALN
checks versus O(log_k n) template updates, randomer inserts, and raw-line
parsing.  These validate the *relative* cost structure (the absolute
values are Python-scale, not the paper's Java testbed).
"""

import random

from repro.core.randomer import Randomer
from repro.core.messages import Pair
from repro.crypto.cipher import AesCbcCipher, SimulatedCipher
from repro.crypto.keys import KeyStore
from repro.datasets.nasa import NasaLogGenerator
from repro.index.domain import nasa_domain
from repro.index.perturb import draw_noise_plan
from repro.index.template import IndexTemplate, LeafArrays
from repro.index.tree import IndexTree
from repro.records.record import EncryptedRecord
from repro.records.serialize import parse_raw_line, serialize_record


def test_micro_aes_encrypt_record(benchmark):
    """Pure-Python AES-CBC encryption of one NASA-sized record."""
    cipher = AesCbcCipher(KeyStore(b"micro-benchmark-master-key-32by!"))
    generator = NasaLogGenerator(seed=1)
    payload = serialize_record(generator.record(), generator.schema)
    ciphertext = benchmark(cipher.encrypt, payload)
    assert len(ciphertext) > len(payload)


def test_micro_simulated_encrypt_record(benchmark):
    """Fast simulated cipher on the same payload (the bulk-run cipher)."""
    cipher = SimulatedCipher(KeyStore(b"micro-benchmark-master-key-32by!"))
    generator = NasaLogGenerator(seed=1)
    payload = serialize_record(generator.record(), generator.schema)
    ciphertext = benchmark(cipher.encrypt, payload)
    assert len(ciphertext) > len(payload)


def test_micro_leaf_offset(benchmark):
    """The O(1) leaf-offset formula over the NASA domain."""
    domain = nasa_domain()
    offset = benchmark(domain.leaf_offset, 123_456)
    assert 0 <= offset < domain.num_leaves


def test_micro_parse_nasa_line(benchmark):
    """Raw-line parsing of one NASA log line."""
    generator = NasaLogGenerator(seed=2)
    line = generator.raw_line()
    record = benchmark(parse_raw_line, line, generator.schema)
    assert record.values


def test_micro_array_check_vs_template_update(benchmark):
    """FRESQUE's O(1) AL/ALN check — compare the mean against
    ``test_micro_template_update`` to see the paper's O(1) vs O(log_k n)
    argument on real code."""
    domain = nasa_domain()
    tree = IndexTree(domain, fanout=16)
    plan = draw_noise_plan(tree, 1.0, rng=random.Random(3))
    arrays = LeafArrays(plan.leaf_noise)
    benchmark(arrays.check_and_update, 1700)


def test_micro_template_update(benchmark):
    """PINED-RQ++'s O(log_k n) root-to-leaf template update."""
    domain = nasa_domain()
    tree = IndexTree(domain, fanout=16)
    plan = draw_noise_plan(tree, 1.0, rng=random.Random(3))
    template = IndexTemplate(domain, fanout=16, plan=plan)
    benchmark(template.update_with_record, 1700)


def test_micro_randomer_insert(benchmark):
    """One randomer insert/evict cycle at paper buffer size (NASA)."""
    randomer = Randomer(2 * 3421 * 16, rng=random.Random(4))
    pair = Pair(0, 0, EncryptedRecord(0, bytes(176)))
    for _ in range(randomer.capacity):
        randomer.insert(pair)
    benchmark(randomer.insert, pair)


def test_micro_ops_bench_json(tmp_path):
    """Smoke-sized run of every micro-op, exported as BENCH_micro_ops.json.

    Times each operation with a fixed loop count (no pytest-benchmark
    fixture, so it also runs under plain ``pytest``) and routes the means
    through the telemetry JSON exporter — the machine-readable artifact CI
    uploads for the perf trajectory.
    """
    from benchmarks.common import _OUT_DIR
    from repro.telemetry.clock import WALL_CLOCK
    from repro.telemetry.exporters import write_bench_json

    generator = NasaLogGenerator(seed=1)
    schema = generator.schema
    payload = serialize_record(generator.record(), schema)
    line = generator.raw_line()
    domain = nasa_domain()
    tree = IndexTree(domain, fanout=16)
    plan = draw_noise_plan(tree, 1.0, rng=random.Random(3))
    arrays = LeafArrays(plan.leaf_noise)
    sim_cipher = SimulatedCipher(KeyStore(b"micro-benchmark-master-key-32by!"))
    randomer = Randomer(1024, rng=random.Random(4))
    pair = Pair(0, 0, EncryptedRecord(0, bytes(176)))
    ops = {
        "simulated_encrypt": lambda: sim_cipher.encrypt(payload),
        "leaf_offset": lambda: domain.leaf_offset(123_456),
        "parse_nasa_line": lambda: parse_raw_line(line, schema),
        "array_check": lambda: arrays.check_and_update(1700),
        "randomer_insert": lambda: randomer.insert(pair),
    }
    loops = 2000
    means = {}
    for name, op in ops.items():
        start = WALL_CLOCK.now()
        for _ in range(loops):
            op()
        means[name] = (WALL_CLOCK.now() - start) / loops
    _OUT_DIR.mkdir(exist_ok=True)
    path = write_bench_json(
        _OUT_DIR / "BENCH_micro_ops.json",
        "micro_ops",
        {"loops": loops, "mean_seconds": means},
    )
    assert path.exists()
    assert all(mean >= 0.0 for mean in means.values())


def test_micro_due_dummies_is_linear():
    """Draining the dummy schedule is O(total) overall.

    The schedule is a deque popped from the front; the old list.pop(0)
    implementation shifted every remaining element per dummy — ~1.25e9
    element moves for the 50k-dummy schedule below, tens of seconds in
    CPython.  The deque drain must finish in well under two.
    """
    from collections import deque

    from repro.core.config import FresqueConfig
    from repro.core.dispatcher import Dispatcher
    from repro.datasets.nasa import nasa_log_schema
    from repro.index.domain import nasa_domain
    from repro.records.record import make_dummy
    from repro.telemetry.clock import WALL_CLOCK

    config = FresqueConfig(
        schema=nasa_log_schema(),
        domain=nasa_domain(),
        num_computing_nodes=4,
        epsilon=1.0,
        alpha=2.0,
    )
    dispatcher = Dispatcher(config, rng=random.Random(6))
    dispatcher.start_publication()
    dummy = make_dummy(config.schema, 100.0)
    count = 50_000
    dispatcher._dummy_schedule = deque(
        (i / count, dummy) for i in range(count)
    )
    start = WALL_CLOCK.now()
    released = 0
    # Drain in many small steps, the worst case for the old pop(0) code.
    for step in range(1, 101):
        released += len(dispatcher.due_dummies(step / 100))
    elapsed = WALL_CLOCK.now() - start
    assert released == count
    assert dispatcher.pending_dummies == 0
    assert elapsed < 2.0
