"""Property tests of the snapshot and ROM readers on corrupted files.

Each example takes a valid file, corrupts one row (or cuts the file at
one), and checks that loading raises DataError naming that line, and
nothing else.  A snapshot file's derivative rows are counted, never
parsed, so its corruptions go to the data and control rows; a cut in the
derivative section is tested in test_snapshots.
"""

import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morcal.deim import DeimOperators
from morcal.errors import DataError
from morcal.opinf import RomOperators
from morcal.pod import PodBasis
from morcal.rom import RomModel, load_rom, save_rom
from morcal.snapshots import ScalingSpec, SnapshotSet, load_snapshots, save_snapshots

N, M, R, S = 6, 5, 3, 2
FIELDS = [("T_c", 0, 3), ("T_s", 3, 6)]
NON_FINITE = ["nan", "NaN", "inf", "-inf", "Infinity", "1e999", "-1e400"]
BAD_TOKENS = ["x", "#", "1_0", "0x1", "1,5", "--1", "1e", "١", "1.2.3"]


def _snapshot_file(path):
    rng = np.random.default_rng(1)
    save_snapshots(SnapshotSet(
        data=500.0 + rng.standard_normal((N, M)),
        trajectory_offsets=np.array([0, M]),
        dt=2.0,
        controls=np.ones(M),
        fields=list(FIELDS),
    ), path, derivatives=rng.standard_normal((N, M)))
    lines = path.read_text().splitlines()
    markers = {"data", "derivatives", "controls"}
    skipped = range(lines.index("derivatives"), lines.index("controls"))
    rows = [i for i in range(lines.index("data"), len(lines))
            if lines[i] not in markers and i not in skipped]
    return rows, rows


def _basis(rng):
    q, _ = np.linalg.qr(rng.standard_normal((N, R)))
    scaling = ScalingSpec(fields=list(FIELDS), shift=np.array([500.0, 510.0]),
                          scale=np.array([2.0, 3.0]))
    return PodBasis(basis=q, singular_values=np.array([9.0, 4.0, 1.0, 0.5]), scaling=scaling)


def _rom_file(path):
    rng = np.random.default_rng(3)
    save_rom(RomModel(
        operators=RomOperators(a=rng.standard_normal((R, R))),
        deim=DeimOperators(indices=np.array([4, 5]), p1=rng.standard_normal((R, S)),
                           p2=rng.standard_normal((S, R)), arrhenius_prefactor=10.0,
                           arrhenius_exponent=1500.0, unscale_scale=np.array([2.0, 3.0]),
                           unscale_shift=np.array([500.0, 510.0])),
        basis=_basis(rng),
        dt=0.5,
    ), path)
    lines = path.read_text().splitlines()
    matrix_rows = []
    for i, line in enumerate(lines):
        if line.startswith("rows="):
            count = int(line.split()[0][len("rows="):])
            matrix_rows += range(i + 1, i + 1 + count)
    return matrix_rows, matrix_rows + [lines.index("[singular_values]") + 1]


FORMATS = {
    "snapshots": (_snapshot_file, load_snapshots),
    "rom": (_rom_file, load_rom),
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Per format: the valid file's lines, its matrix rows, its numeric rows, the loader."""
    base = tmp_path_factory.mktemp("readers")
    out = {}
    for name, (write, load) in FORMATS.items():
        path = base / f"{name}.txt"
        matrix_rows, numeric_rows = write(path)
        out[name] = (path.read_text().splitlines(), matrix_rows, numeric_rows, load)
    out["corrupt"] = base / "corrupt.txt"
    # The valid snapshot file's mirror stays beside each corruption of its text, stale.
    shutil.copyfile(base / "snapshots.txt.bin", base / "corrupt.txt.bin")
    return out


def test_valid_files_load(files):
    for name in FORMATS:
        lines, _, _, load = files[name]
        files["corrupt"].write_text("\n".join(lines) + "\n")
        load(files["corrupt"])


@st.composite
def corruptions(draw):
    """(format, kind, row index, token position, replacement token)."""
    fmt = draw(st.sampled_from(sorted(FORMATS)))
    kind = draw(st.sampled_from(["truncate", "drop", "add", "blank", "non_finite", "bad"]))
    token = draw(st.sampled_from(NON_FINITE if kind == "non_finite" else BAD_TOKENS))
    return fmt, kind, draw(st.integers(0, 10 ** 6)), draw(st.integers(0, 10 ** 6)), token


@settings(max_examples=150, deadline=None)
@given(corruptions())
def test_corrupt_rows_raise_data_error_naming_the_line(files, corruption):
    fmt, kind, row_pick, token_pick, token = corruption
    lines, matrix_rows, numeric_rows, load = files[fmt]
    # Miscounts, blank lines and cuts are checked on matrix rows; the
    # singular-value lines take their length from the line itself.
    rows = numeric_rows if kind in ("non_finite", "bad") else matrix_rows
    i = rows[row_pick % len(rows)]
    lines = list(lines)
    tokens = lines[i].split()
    pos = token_pick % len(tokens)
    if kind == "truncate":
        lines = lines[:i]
    elif kind == "drop":
        lines[i] = " ".join(tokens[:pos] + tokens[pos + 1:])
    elif kind == "add":
        lines[i] = " ".join(tokens[:pos] + ["1.5"] + tokens[pos:])
    elif kind == "blank":
        lines.insert(i, "")
    else:
        lines[i] = " ".join(tokens[:pos] + [token] + tokens[pos + 1:])
    files["corrupt"].write_text("".join(line + "\n" for line in lines))
    with pytest.raises(DataError) as err:
        load(files["corrupt"])
    assert f"line {i + 1}:" in str(err.value)
    if kind == "non_finite":
        assert "non-finite" in str(err.value)
