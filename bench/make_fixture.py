"""Write bench/fixtures/ledger.jsonl, the ledger the identities workload
loads, exports and re-verifies.

    python3 bench/make_fixture.py

It is written once by the library as it stands and then kept as data, so
that a later library still has to read the ledger an earlier one wrote.
The recipes are the splice chain to j=2, flowers 5..9, the pentagon-join
family and the four dot products of the (dropped) joins workload.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from snarkforge.ledger import (  # noqa: E402
    Ledger,
    flower_family,
    pentagon_join_family,
    search,
    superpose_chain_family,
)

DOT_PRODUCTS = [
    "(dotproduct (petersen) e1=0 e2=7 (petersen) x=0 y=1)",
    "(dotproduct (petersen) e1=0 e2=7 (petersen) x=0 y=1 wiring=crossed)",
    "(dotproduct (flower 5) e1=0 e2=7 (petersen) x=0 y=1)",
    "(dotproduct (petersen) e1=0 e2=7 (flower 5) x=0 y=1)",
]


def main() -> None:
    path = Path(__file__).resolve().parent / "fixtures" / "ledger.jsonl"
    path.unlink(missing_ok=True)
    recipes = [*superpose_chain_family(2), *flower_family(9), *pentagon_join_family(),
               *DOT_PRODUCTS]
    for _ in search(recipes, Ledger(str(path)), workers=1):
        pass


if __name__ == "__main__":
    main()
