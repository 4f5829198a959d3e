"""The claim rule that ``tools/abpairs.py`` prints after each metric."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _abpairs():
    path = ROOT / "tools" / "abpairs.py"
    spec = importlib.util.spec_from_file_location("abpairs", path)
    module = importlib.util.module_from_spec(spec)
    write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write
    return module


claim_met = _abpairs().claim_met


def test_a_claim_needs_nine_tenths_of_the_pairs_and_a_gap_past_the_base_spread():
    base = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]
    assert claim_met(base, [b - 1 for b in base], lower=True)
    assert not claim_met(base, [b - 1 for b in base], lower=False)
    assert claim_met([-b for b in base], [1 - b for b in base], lower=False)
    # 8 of 10 pairs won: not enough, however wide the gap
    assert not claim_met(base, [b - 1 for b in base[:8]] + base[8:], lower=True)
    # every pair won, but by less than the base's quartile spread
    assert not claim_met(base, [b - 0.01 for b in base], lower=True)
    # a tie counts for neither side: 9 wins of 10 pairs still suffice
    assert claim_met(base, [b - 1 for b in base[:9]] + base[9:], lower=True)
