"""Tests for the keyed random streams and the fixed-block dispatcher."""

import ast
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import born_branch
from born_branch import Exogenous, OutOfRange, WalkParams, rng_stream, walk_survival
from born_branch.cli import main
from born_branch.rng import BLOCK_SIZE, block_sizes, map_blocks

WORD = st.integers(0, 2**64 - 1)


def _state(rng):
    return tuple(int(v) for v in rng.bit_generator.state["state"]["state"])


class TestStream:
    """SFC64 keyed by SeedSequence(seed) with the spawn key (stream_id,)."""

    def test_generator_is_sfc64(self):
        assert isinstance(rng_stream(0, 0).bit_generator, np.random.SFC64)

    def test_golden_words(self):
        """The first words of stream (0, 0): a change of keying or of numpy's
        SeedSequence or SFC64 shows here."""
        assert rng_stream(0, 0).bit_generator.random_raw(4).tolist() == [
            10116541783505607535,
            7467812998635031247,
            16408170688587494076,
            8359172907132646958,
        ]

    @given(seed=WORD, stream_id=WORD)
    @settings(max_examples=30, deadline=None)
    def test_same_pair_same_stream(self, seed, stream_id):
        a, b = rng_stream(seed, stream_id), rng_stream(seed, stream_id)
        assert a.bit_generator.random_raw(8).tolist() == b.bit_generator.random_raw(8).tolist()

    @given(a=st.tuples(WORD, WORD), b=st.tuples(WORD, WORD))
    # a list [seed, stream_id] as entropy is split into a variable number of
    # 32-bit words, so these two pairs would give one key
    @example(a=(0, 1 + 5 * 2**32), b=(2**32, 5))
    @settings(max_examples=100, deadline=None)
    def test_distinct_pairs_distinct_states(self, a, b):
        if a != b:
            assert _state(rng_stream(*a)) != _state(rng_stream(*b))

    def test_keys_taken_mod_two_to_the_64(self):
        assert _state(rng_stream(-1, 0)) == _state(rng_stream(2**64 - 1, 0))
        assert _state(rng_stream(3, -1)) == _state(rng_stream(3, 2**64 - 1))
        assert _state(rng_stream(2**64 + 7, 2)) == _state(rng_stream(7, 2))

    def test_numpy_integers_key_like_ints(self):
        assert _state(rng_stream(np.int64(-1), np.uint64(4))) == _state(rng_stream(-1, 4))

    @pytest.mark.parametrize("bad", [1.5, "3", None, True, np.float64(2.0), np.bool_(True)])
    @pytest.mark.parametrize("name", ["seed", "stream_id"])
    def test_non_integer_key_refused(self, name, bad):
        key = {"seed": 0, "stream_id": 0, name: bad}
        with pytest.raises(OutOfRange, match=rf"\b{name}="):
            rng_stream(**key)

    @pytest.mark.parametrize("bad", [1.5, "3", None, True])
    def test_library_op_refuses_non_integer_seed(self, bad):
        """A bad seed reached `seed & mask` and raised an untyped TypeError,
        while True ran as seed 1."""
        params = WalkParams(mu=0.2, sigma=1.0)
        with pytest.raises(OutOfRange, match=r"\bseed="):
            walk_survival(params, [0.0], Exogenous(math.exp(-1.0), 0.5), 5, 1_000, seed=bad)


class TestBlocks:
    """Fixed blocks, one stream each, results in block order."""

    @pytest.mark.parametrize(
        "n, expect",
        [
            (0, []),
            (1, [1]),
            (BLOCK_SIZE, [BLOCK_SIZE]),
            (2 * BLOCK_SIZE + 3, [BLOCK_SIZE, BLOCK_SIZE, 3]),
        ],
    )
    def test_block_sizes(self, n, expect):
        assert block_sizes(n) == expect

    @given(blocks=st.integers(1, 3), offset=st.integers(-2, 2), workers=st.integers(2, 3))
    @settings(max_examples=10, deadline=None)
    def test_block_order_and_worker_invariance(self, blocks, offset, workers):
        n = max(blocks * BLOCK_SIZE + offset, 1)

        def fn(i, rng, size):
            return i, size, rng.random(2).tolist()

        one = map_blocks(fn, n, seed=9, workers=1)
        assert [(i, size) for i, size, _ in one] == list(enumerate(block_sizes(n)))
        assert [draws for _, _, draws in one] == [
            rng_stream(9, i).random(2).tolist() for i in range(len(one))
        ]
        assert map_blocks(fn, n, seed=9, workers=workers) == one

    @pytest.mark.parametrize("workers", [0, -1])
    def test_worker_count_below_one_refused(self, workers):
        with pytest.raises(OutOfRange, match="worker count"):
            map_blocks(lambda i, rng, size: size, 10, seed=0, workers=workers)

    @pytest.mark.parametrize("offset", [-1, 1])
    def test_cli_diffusion_same_at_one_and_three_workers(self, offset, tmp_path):
        """The bridge MC of a diffusion run with mc_n_paths just across a
        block edge: identical estimates and series.csv bytes."""
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "parameters": {"mc_n_paths": 2 * BLOCK_SIZE + offset, "mc_dt": 1.0,
                           "tau_grid": [5.0]},
        }))
        outs = []
        for workers in ("1", "3"):
            out = tmp_path / workers
            args = ["diffusion", "--config", str(config), "--workers", workers, "--out", str(out)]
            assert main(args) == 0
            results = json.loads((out / "results.json").read_text())
            outs.append((results["estimates"], (out / "series.csv").read_bytes()))
        assert outs[0] == outs[1]


def _np_random_uses(source: str) -> list[str]:
    """Every reference to numpy.random in source other than the Generator
    type, and every import from numpy.random, by line."""
    tree = ast.parse(source)
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    uses = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "random"
            and ast.unparse(node.value) in ("np", "numpy")
        ):
            outer = parents.get(node)
            if not (isinstance(outer, ast.Attribute) and outer.attr == "Generator"):
                uses.append((node.lineno, ast.unparse(outer or node)))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy.random"):
            uses.append((node.lineno, f"from {node.module}"))
        elif isinstance(node, ast.Import):
            uses += [(node.lineno, f"import {a.name}") for a in node.names
                     if a.name.startswith("numpy.random")]
    return [f"{line}: {text}" for line, text in sorted(uses)]


def test_np_random_uses_detector():
    assert _np_random_uses("def f(rng: np.random.Generator): pass") == []
    assert _np_random_uses(
        "import numpy.random\nfrom numpy.random import SFC64\n"
        "g = np.random.default_rng(0)\nr = np.random\n"
    ) == [
        "1: import numpy.random",
        "2: from numpy.random",
        "3: np.random.default_rng",
        "4: r = np.random",
    ]


def test_bit_generators_built_only_in_rng():
    """Outside rng.py the package names numpy.random only for the
    Generator type, so every stream comes from rng_stream."""
    pkg = Path(born_branch.__file__).parent
    uses = [
        f"{path.name}:{use}"
        for path in sorted(pkg.glob("*.py"))
        if path.name != "rng.py"
        for use in _np_random_uses(path.read_text())
    ]
    assert uses == []
