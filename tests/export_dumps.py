"""The irrep files of the four products the benchmark's export workload
dumps, E6 27 x 27bar, SO(10) 16 x 16bar, SU(4) 15 x 15 and SU(3) 27 x 8,
and of the SU(3) 8 x 8 dump whose first file is that 27, written by
`lie --dump` into one directory."""

import io
from contextlib import redirect_stdout

from liecg import cli
from liecg.liealg import LieAlgebra

A2 = LieAlgebra("A", 2)


def dump_export_products(root):
    """[(product name, algebra, path)] of every irrep_K.json the five dumps
    write under root, each dump's files in K order."""
    products = [
        ("su3-8x8", ["-su", "3"], "11x11", A2),
        ("e6-27x27bar", ["-e6"], "100000x000010", LieAlgebra("E6", 6)),
        ("so10-16x16bar", ["-so", "10"], "00010x00001", LieAlgebra("D", 5)),
        ("su4-15x15", ["-su", "4"], "101x101", LieAlgebra("A", 3)),
        ("su3-27x8", ["-su", "3"], f"@{root}/su3-8x8/irrep_1.json x 11", A2),
    ]
    files = []
    for name, algebra, spec, la in products:
        out = root / name
        with redirect_stdout(io.StringIO()):
            rc = cli.main([*algebra, "--decompose", spec, "--dump", str(out)])
        assert rc == 0, name
        paths = sorted(out.glob("irrep_*.json"),
                       key=lambda p: int(p.stem.split("_")[1]))
        files += [(name, la, p) for p in paths]
    return files
