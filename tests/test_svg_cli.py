import argparse
import contextlib
import hashlib
import math
import pathlib
import re
import shlex
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

import phom.cli
import phom.vr
from phom import (
    Barcode,
    InputError,
    PersistenceInterval,
    PointCloud,
    build_vr,
    distance_matrix,
    intervals,
    render_barcode_svg,
    render_diagram_svg,
)
from phom.cli import main

SQUARE = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
README = (pathlib.Path(__file__).parents[1] / "README.md").read_text()


def square_barcode():
    # max_dim 3 so the solid tetrahedron caps the transient dim-2 shell
    return intervals(build_vr(distance_matrix(PointCloud(SQUARE)), 1.0, 3))


def svg_root(path):
    tree = ET.parse(path)  # raises on malformed XML
    return tree.getroot()


# --- SVG rendering ---

def test_barcode_svg_single_bar(tmp_path):
    bc = Barcode((PersistenceInterval(0, 0.0, 1.0),), eps_max=1.0)
    out = tmp_path / "one.svg"
    render_barcode_svg(bc, out)
    root = svg_root(out)
    bars = [e for e in root.iter() if e.get("class") == "bar"]
    assert len(bars) == 1


def test_barcode_svg_square(tmp_path):
    out = tmp_path / "square.svg"
    render_barcode_svg(square_barcode(), out)
    root = svg_root(out)
    bars = [e for e in root.iter() if e.get("class") == "bar"]
    assert len(bars) == 5  # 4 dim-0 bars + 1 dim-1 bar
    colors = {e.get("stroke") for e in bars}
    assert len(colors) == 2  # one color per dimension present


def test_barcode_svg_rejects_empty(tmp_path):
    out = tmp_path / "x.svg"
    for render in (render_barcode_svg, render_diagram_svg):
        with pytest.raises(InputError, match="empty barcode"):
            render(Barcode((), eps_max=1.0), out)
        assert not out.exists(), render.__name__


def test_diagram_svg_square(tmp_path):
    out = tmp_path / "diag.svg"
    render_diagram_svg(square_barcode(), out)
    root = svg_root(out)
    pts = [e for e in root.iter() if e.get("class") == "pt"]
    # 4 dim-0 intervals collapse to 2 distinct markers (3 equal + 1 inf),
    # plus the dim-1 point
    assert len(pts) == 3
    text = out.read_text()
    assert "x3" in text  # multiplicity annotation for the repeated bar


def test_diagram_svg_points_above_diagonal(tmp_path):
    bc = square_barcode()
    for iv in bc:
        assert iv.birth <= iv.death


# --- CLI ---

def run_cli(*argv):
    return main(list(argv))


def test_cli_gen_fibsphere(tmp_path, capsys):
    out = tmp_path / "pts.csv"
    assert run_cli("gen", "fibsphere", "--n", "500", "--out", str(out)) == 0
    assert len(out.read_text().splitlines()) == 500


def test_cli_gen_sphere_and_msd(tmp_path):
    s = tmp_path / "s.csv"
    assert run_cli("gen", "sphere", "--nu", "22", "--nv", "11", "--out", str(s)) == 0
    assert len(s.read_text().splitlines()) == 200
    m = tmp_path / "m.csv"
    with pytest.warns(UserWarning, match="negative effective stiffness"):
        assert run_cli("gen", "msd", "--mode", "2", "--out", str(m)) == 0
    rows = m.read_text().splitlines()
    assert len(rows) == 252 and len(rows[0].split(",")) == 4


def test_cli_gen_msd_write_config(tmp_path):
    cfg = tmp_path / "msd.cfg"
    with pytest.warns(UserWarning, match="negative effective stiffness"):
        assert run_cli("gen", "msd", "--write-config", str(cfg)) == 0
    text = cfg.read_text()
    assert "k2 = 10000.0" in text and "t_divs = 7" in text
    out = tmp_path / "m.csv"
    with pytest.warns(UserWarning, match="negative effective stiffness"):
        assert run_cli("gen", "msd", "--config", str(cfg), "--out", str(out)) == 0
    assert len(out.read_text().splitlines()) == 252


def test_cli_vr_summary(tmp_path, capsys):
    pts = tmp_path / "sq.csv"
    pts.write_text("".join(f"{x},{y}\n" for x, y in SQUARE))
    assert run_cli("vr", str(pts), "--eps", "0.75", "--max-dim", "2") == 0
    out = capsys.readouterr().out
    assert "dim 0: 4" in out and "dim 1: 6" in out and "dim 2: 4" in out
    assert "total: 14" in out


def test_cli_persist_betti_pipeline(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    assert run_cli("gen", "fibsphere", "--n", "500", "--out", str(pts)) == 0
    bc = tmp_path / "bc.csv"
    assert (
        run_cli(
            "persist", str(pts),
            "--eps", "0.25", "--max-dim", "3",
            "--edge-rule", "diameter-eps",
            "--out", str(bc),
        )
        == 0
    )
    capsys.readouterr()
    assert run_cli("betti", str(bc), "--eps", "0.25", "--max-k", "2") == 0
    assert capsys.readouterr().out.strip() == "[1,0,1]"


def test_cli_betti_of_barcode_matches_points(tmp_path, capsys):
    # persist reports dimensions below --max-dim only, so betti on its
    # barcode defaults to the same dimensions as betti on the points
    square = tmp_path / "sq.csv"
    square.write_text("".join(f"{x},{y}\n" for x, y in SQUARE))
    fib = tmp_path / "fib.csv"
    assert run_cli("gen", "fibsphere", "--n", "500", "--out", str(fib)) == 0
    bc = tmp_path / "bc.csv"
    cases = ((square, "1.5", 2, "[1,0]"), (fib, "0.25", 3, "[1,0,1]"))
    for pts, eps, max_dim, expected in cases:
        flags = ("--eps", eps, "--edge-rule", "diameter-eps")
        persist = ("persist", str(pts), *flags, "--max-dim", str(max_dim), "--out", str(bc))
        assert run_cli(*persist) == 0
        capsys.readouterr()
        assert run_cli("betti", str(bc), "--eps", eps) == 0
        from_barcode = capsys.readouterr().out
        assert run_cli("betti", str(pts), *flags, "--max-k", str(max_dim - 1)) == 0
        assert from_barcode == capsys.readouterr().out == expected + "\n"


def test_cli_persist_refuses_max_dim_0(tmp_path, capsys):
    pts = tmp_path / "sq.csv"
    pts.write_text("".join(f"{x},{y}\n" for x, y in SQUARE))
    assert run_cli("persist", str(pts), "--eps", "1", "--max-dim", "0") == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "--max-dim" in captured.err


def test_cli_betti_from_points(tmp_path, capsys):
    pts = tmp_path / "sq.csv"
    pts.write_text("".join(f"{x},{y}\n" for x, y in SQUARE))
    assert run_cli("betti", str(pts), "--eps", "0.6", "--max-k", "1") == 0
    assert capsys.readouterr().out.strip() == "[1,1]"
    # without --max-k the point path defaults to connectivity + loops
    assert run_cli("betti", str(pts), "--eps", "0.3") == 0
    assert capsys.readouterr().out.strip() == "[4,0]"


@pytest.mark.parametrize(
    "flag, value", [("--edge-rule", "paper-2eps"), ("--max-simplices", "1000")]
)
def test_cli_betti_barcode_refuses_complex_flag(tmp_path, capsys, flag, value):
    # the complex flags act on point input only; a barcode input must not
    # accept one and silently ignore it
    bc = tmp_path / "bc.csv"
    bc.write_text("dim,birth,death\n0,0,inf\n")
    assert run_cli("betti", str(bc), "--eps", "0.5", flag, value) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and flag in captured.err


def test_cli_betti_builds_to_max_k_plus_one(tmp_path, capsys, monkeypatch):
    # beta_k needs the (k + 1)-skeleton: on points, betti builds the
    # complex to --max-k + 1, and to 2 when --max-k is omitted
    pts = tmp_path / "sq.csv"
    pts.write_text("".join(f"{x},{y}\n" for x, y in SQUARE))
    built = []
    real = phom.vr.build_vr

    def spy(dm, eps, max_dim, *rest):
        built.append(max_dim)
        return real(dm, eps, max_dim, *rest)

    monkeypatch.setattr("phom.vr.build_vr", spy)
    cases = (((), 2, "[1,1]"), (("--max-k", "0"), 1, "[1]"), (("--max-k", "2"), 3, "[1,1,0]"))
    for flags, max_dim, want in cases:
        assert run_cli("betti", str(pts), "--eps", "0.6", *flags) == 0, flags
        assert capsys.readouterr().out == want + "\n" and built.pop() == max_dim, flags
    # the 4-point square holds a 3-simplex at most, so --max-k 2 at most
    assert run_cli("betti", str(pts), "--eps", "2", "--max-k", "3") == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not built
    assert captured.err == "error: --max-k must be in [0, 2] for a 4-point cloud, got 3\n"


def test_cli_betti_takes_no_max_dim(tmp_path, capsys):
    # the complex's top dimension follows from --max-k, so --max-dim is
    # no betti flag, on point input or barcode input
    pts = tmp_path / "sq.csv"
    pts.write_text("".join(f"{x},{y}\n" for x, y in SQUARE))
    bc = tmp_path / "bc.csv"
    bc.write_text("dim,birth,death\n0,0,inf\n")
    for path in (pts, bc):
        assert run_cli("betti", str(path), "--eps", "0.6", "--max-dim", "2") == 1, path
        captured = capsys.readouterr()
        assert captured.out == "" and "--max-dim" in captured.err, path


def test_cli_compare_refuses_powers_beyond_float_range(tmp_path, capsys):
    # a p-th power beyond float range would print 0.0000 or inf: exit 2
    files = {}
    for name, bar in (("a", "0.1,0.5"), ("b", "0.1,0.3"), ("c", "0,10"), ("d", "0,30")):
        files[name] = tmp_path / f"{name}.csv"
        files[name].write_text(f"dim,birth,death\n0,0,inf\n1,{bar}\n")
    # at p = 1 a pair whose endpoint difference overflows is never matched,
    # and a wide bar matches itself, but a total beyond float max is
    # refused, without advice; a file compared with itself is at 0 even
    # where a bar's diagonal cost leaves float range
    for name, bars in (
        ("wide", "0,-1e308,-1e308\n1,-1e308,1e308\n"),
        ("high", "1,1e308,1e308\n"),
        ("wides", "1,-1e308,1e308\n1,-1e308,1e308\n"),
        ("none", ""),
        ("long", "0,0,1\n1,0,1e200\n"),
    ):
        files[name] = tmp_path / f"{name}.csv"
        files[name].write_text(f"dim,birth,death\n{bars}")
    for left, right, p, out in (
        ("a", "b", "400", "0.2"),
        ("c", "d", "200", "15"),
        ("wide", "high", "1", "1e+308"),
        ("wide", "wide", "1", "0.0000"),
        ("long", "long", "2", "0.0000"),
    ):
        assert run_cli("compare", str(files[left]), str(files[right]), "--p", p) == 0
        assert capsys.readouterr().out == f"d_Wp = {out}\n"
    for left, right, p in (
        ("a", "b", "500"),
        ("a", "b", "1000"),
        ("c", "d", "300"),
        ("wides", "none", "1"),
    ):
        assert run_cli("compare", str(files[left]), str(files[right]), "--p", p) == 2, p
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: "), p
        assert f"p = {float(p)}" in captured.err, p
        assert ("use a smaller p" in captured.err) == (float(p) > 1), p


def test_cli_persist_to_stdout(tmp_path, capsys):
    pts = tmp_path / "sq.csv"
    pts.write_text("".join(f"{x},{y}\n" for x, y in SQUARE))
    assert run_cli("persist", str(pts), "--eps", "1.0", "--max-dim", "2") == 0
    out = capsys.readouterr().out
    assert out.startswith("dim,birth,death\n")
    assert "0,0,inf" in out
    # stdout and --out are one writer: the same bytes
    bc = tmp_path / "bc.csv"
    args = ("persist", str(pts), "--eps", "0.6", "--max-dim", "3")
    assert run_cli(*args) == 0
    streamed = capsys.readouterr().out.encode()
    assert run_cli(*args, "--out", str(bc)) == 0
    assert streamed == bc.read_bytes() and streamed.count(b"\n") > 5


def test_cli_compare_identical(tmp_path, capsys):
    pts = tmp_path / "sq.csv"
    pts.write_text("".join(f"{x},{y}\n" for x, y in SQUARE))
    bc = tmp_path / "bc.csv"
    run_cli("persist", str(pts), "--eps", "1.0", "--max-dim", "2", "--out", str(bc))
    capsys.readouterr()
    assert run_cli("compare", str(bc), str(bc), "--p", "2") == 0
    assert capsys.readouterr().out.strip() == "d_Wp = 0.0000"


def test_cli_compare_dims_filter(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("dim,birth,death\n0,0,1\n1,0,4\n")
    b.write_text("dim,birth,death\n0,0,1\n")
    assert run_cli("compare", str(a), str(b), "--p", "1", "--dims", "0") == 0
    assert capsys.readouterr().out.strip() == "d_Wp = 0.0000"
    assert run_cli("compare", str(a), str(b), "--p", "1") == 0
    assert capsys.readouterr().out.strip() == "d_Wp = 2"


def test_cli_refuses_out_of_range_values(tmp_path, capsys):
    bc = tmp_path / "bc.csv"
    bc.write_text("dim,birth,death\n0,0,inf\n0,0,1\n")
    refused = [
        ("compare", str(bc), str(bc), "--p", "inf"),
        ("compare", str(bc), str(bc), "--p", "nan"),
        ("compare", str(bc), str(bc), "--dims", ","),
        ("compare", str(bc), str(bc), "--dims", "-3"),
        ("betti", str(bc), "--eps", "0.3", "--max-k", "-1"),
    ]
    for argv in refused:
        assert run_cli(*argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: "), argv
    # a dimension absent from both barcodes is legal and contributes nothing
    assert run_cli("compare", str(bc), str(bc), "--dims", "5") == 0
    assert capsys.readouterr().out.strip() == "d_Wp = 0.0000"
    # a bar born at infinity would put nan coordinates into a plot
    bad = tmp_path / "bad.csv"
    bad.write_text("dim,birth,death\n0,0,inf\n0,inf,inf\n")
    out = tmp_path / "bad.svg"
    assert run_cli("plot", "barcode", str(bad), "--out", str(out)) == 1
    assert f"{bad}:3" in capsys.readouterr().err and not out.exists()


# sha256 of outputs written before barcodes were packed arrays; every
# byte must stay the same
GOLDEN_SHA256 = {
    "persist": "b37ed5e8bfc06c359e27f18bbca8f04d7f2b25af1fa73a8d56e1113a91a86eba",
    "barcode": "30de5401e236e589d952fa4112ad7d6bd12d8d2aed9fdfca29d493fd34d90c18",
    "diagram": "1466f4e12c538b9438e373ac5eb617801185e36d86f2cb5ef1ffa4d915126e9a",
    "compare p=1": "abe189001be3e2d1d9f1a0c6f994b0ab7c2d875f9aae17829867acda8a8fce7d",
    "compare p=2": "0724c37efb95a26c34d41a166106d54c1f58d83bedb05b56c30145084f3f250f",
}


def test_cli_golden_bytes(tmp_path, capsys):
    def sha(data):
        return hashlib.sha256(data).hexdigest()

    pts = tmp_path / "fib.csv"
    assert run_cli("gen", "fibsphere", "--n", "500", "--out", str(pts)) == 0
    capsys.readouterr()
    assert run_cli(
        "persist", str(pts), "--eps", "0.25", "--max-dim", "3",
        "--edge-rule", "diameter-eps",
    ) == 0
    persisted = capsys.readouterr().out.encode()
    got = {"persist": sha(persisted)}
    bc = tmp_path / "fib_bc.csv"
    bc.write_bytes(persisted)
    for kind in ("barcode", "diagram"):
        out = tmp_path / f"{kind}.svg"
        assert run_cli("plot", kind, str(bc), "--out", str(out)) == 0
        got[kind] = sha(out.read_bytes())
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text(
        "dim,birth,death\n0,0,inf\n0,0,0.25\n0,0,0.4\n1,0.3,0.9\n1,0.5,0.55\n2,0.6,inf\n"
    )
    b.write_text(
        "dim,birth,death\n0,0,inf\n0,0,0.3\n1,0.2,0.8\n1,0.45,0.7\n1,0.65,0.66\n2,0.7,inf\n"
    )
    capsys.readouterr()
    for p in ("1", "2"):
        assert run_cli("compare", str(a), str(b), "--p", p) == 0
        got[f"compare p={p}"] = sha(capsys.readouterr().out.encode())
    assert got == GOLDEN_SHA256


def test_cli_plot(tmp_path):
    pts = tmp_path / "sq.csv"
    pts.write_text("".join(f"{x},{y}\n" for x, y in SQUARE))
    bc = tmp_path / "bc.csv"
    run_cli("persist", str(pts), "--eps", "1.0", "--max-dim", "2", "--out", str(bc))
    for kind in ("barcode", "diagram"):
        out = tmp_path / f"{kind}.svg"
        assert run_cli("plot", kind, str(bc), "--out", str(out)) == 0
        svg_root(out)  # well-formed


def test_cli_builds_one_parser(tmp_path, capsys):
    # every main call parses with one cached parser, which a usage error
    # after a successful call leaves working: exit 1, nothing on stdout
    phom.cli._make_parser.cache_clear()
    pts = tmp_path / "pts.csv"
    assert run_cli("gen", "fibsphere", "--n", "20", "--out", str(pts)) == 0
    capsys.readouterr()
    vr_argv = ("vr", str(pts), "--eps", "0.5", "--max-dim", "1")
    assert run_cli(*vr_argv) == 0
    counts = capsys.readouterr().out
    assert phom.cli._make_parser.cache_info()[:2] == (1, 1)  # hits, misses
    assert run_cli("betti", str(pts), "--eps", "0.5", "--max-dim", "2") == 1
    out, err = capsys.readouterr()
    assert out == "" and "unrecognized arguments: --max-dim 2" in err
    assert run_cli(*vr_argv) == 0
    assert capsys.readouterr().out == counts
    assert phom.cli._make_parser.cache_info()[:2] == (3, 1)


def test_cli_exit_codes(tmp_path, capsys, monkeypatch):
    # unknown subcommand: usage text, exit 1
    assert run_cli("frobnicate") == 1
    # missing file: exit 1
    assert run_cli("vr", str(tmp_path / "nope.csv"), "--eps", "1", "--max-dim", "2") == 1
    # budget exhaustion: exit 2
    pts = tmp_path / "pts.csv"
    run_cli("gen", "fibsphere", "--n", "100", "--out", str(pts))
    capsys.readouterr()
    code = run_cli(
        "vr", str(pts), "--eps", "2.5", "--max-dim", "4", "--max-simplices", "500"
    )
    assert code == 2
    assert "budget" in capsys.readouterr().err
    # a matching whose cost matrix would exceed the memory budget: exit 2
    # (a file compared with itself is answered before any matching)
    big, other = tmp_path / "big.csv", tmp_path / "other.csv"
    bars = "dim,birth,death\n" + "".join(f"0,0,{i + 1}\n" for i in range(33_000))
    big.write_text(bars)
    other.write_text(bars.replace("0,0,33000\n", "0,0,33001\n"))
    assert run_cli("compare", str(big), str(other)) == 2
    assert "budget" in capsys.readouterr().err
    # a distance matrix over the memory budget: exit 2
    many = tmp_path / "many.csv"
    many.write_text("".join(f"{i}\n" for i in range(33_000)))
    assert run_cli("vr", str(many), "--eps", "1", "--max-dim", "1") == 2
    assert "budget" in capsys.readouterr().err
    # a generated cloud over the memory budget: exit 2, before allocating
    # it, for a config whose ranges keep the stiffness positive (no warning);
    # and Betti counts over it, asked for or implied by a barcode's dims
    huge = tmp_path / "huge.cfg"
    huge.write_text("t_divs = 1000000000000\nalpha_max = 0.001\nd_max = 0.5\n")
    # an int no float can hold reaches the grid guard, not math.isfinite
    vast = tmp_path / "vast.cfg"
    vast.write_text("t_divs = 1" + "0" * 400 + "\nalpha_max = 0.001\nd_max = 0.5\n")
    deep = tmp_path / "deep.csv"
    deep.write_text("dim,birth,death\n0,0,inf\n1000000000000000,0,1\n")
    oversized = [
        ("gen", "fibsphere", "--n", "1000000000000", "--out", str(tmp_path / "f.csv")),
        ("gen", "sphere", "--nu", "1000000000000", "--nv", "2", "--out", str(tmp_path / "s.csv")),
        ("gen", "msd", "--config", str(huge), "--out", str(tmp_path / "m.csv")),
        ("gen", "msd", "--config", str(vast), "--out", str(tmp_path / "m.csv")),
        ("betti", str(deep), "--eps", "0.5", "--max-k", "1000000000000000"),
        ("betti", str(deep), "--eps", "0.5", "--max-k", "100000000000000000000"),
        ("betti", str(deep), "--eps", "0.5"),
    ]
    for argv in oversized:
        assert run_cli(*argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: "), argv
        assert "budget" in captured.err, argv
    # a budget that is not positive, a scale, threshold or parameter that
    # is not a finite number, and a repeated dimension: exit 1
    bc = tmp_path / "bc.csv"
    bc.write_text("dim,birth,death\n0,0,inf\n0,0,1\n1,0.2,0.5\n")
    cfg = tmp_path / "inf.cfg"
    cfg.write_text("k1 = inf\n")
    # a file that is not UTF-8 text
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\xff\xfe\x00bad\n")
    written = tmp_path / "w.cfg"
    refused = [
        ("vr", str(pts), "--eps", "1", "--max-dim", "2", "--max-simplices", "0"),
        ("vr", str(pts), "--eps", "1", "--max-dim", "2", "--max-simplices", "-5"),
        ("vr", str(pts), "--eps", "nan", "--max-dim", "2"),
        ("vr", str(pts), "--eps", "inf", "--max-dim", "2"),
        ("betti", str(pts), "--eps", "nan", "--max-k", "1"),
        ("betti", str(bc), "--eps", "nan"),
        ("betti", str(bc), "--eps", "inf"),
        ("persist", str(pts), "--eps", "0.3", "--max-dim", "1", "--min-length", "nan"),
        ("compare", str(bc), str(bc), "--dims", "1,1"),
        ("gen", "msd", "--config", str(cfg), "--out", str(tmp_path / "o.csv")),
        ("vr", str(bad), "--eps", "1", "--max-dim", "1"),
        ("betti", str(bad), "--eps", "1"),
        ("persist", str(bad), "--eps", "1", "--max-dim", "1"),
        ("compare", str(bad), str(bc)),
        ("compare", str(bc), str(bad)),
        ("plot", "barcode", str(bad), "--out", str(tmp_path / "bad.svg")),
        ("gen", "msd", "--config", str(bad), "--out", str(tmp_path / "o.csv")),
        # --write-config writes the config and exits: no points to put out
        # or embed, and it refuses before it builds or writes anything
        ("gen", "msd", "--write-config", str(written), "--out", str(tmp_path / "x.csv")),
        ("gen", "msd", "--write-config", str(written), "--embed", "frequency"),
    ]
    for argv in refused:
        assert run_cli(*argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: "), argv
    assert not written.exists() and not (tmp_path / "x.csv").exists()
    # betti on points refuses a --max-k outside [0, n - 2] before it
    # builds the complex: exit 1, and build_vr is never called
    def no_build(*args, **kwargs):
        raise AssertionError("build_vr called")

    monkeypatch.setattr("phom.vr.build_vr", no_build)
    for max_k in ("-1", "99", "1000000000000000"):
        assert run_cli("betti", str(pts), "--eps", "1", "--max-k", max_k) == 1, max_k
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: "), max_k
        assert "--max-k" in captured.err and "100-point" in captured.err, max_k


def test_cli_refuses_dim_beyond_int64(tmp_path, capsys):
    # the row parse names the line whose dim int64 cannot hold: exit 1
    big = tmp_path / "big.csv"
    big.write_text("dim,birth,death\n100000000000000000000,0,1\n")
    small = tmp_path / "small.csv"
    small.write_text("dim,birth,death\n0,0,1\n")
    for argv in (
        ("plot", "barcode", str(big), "--out", str(tmp_path / "big.svg")),
        ("betti", str(big), "--eps", "0.5"),
        ("compare", str(big), str(small)),
    ):
        assert run_cli(*argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: {big}:2: "), argv
    assert not (tmp_path / "big.svg").exists()


def test_cli_determinism(tmp_path):
    outs = []
    for tag in ("one", "two"):
        pts = tmp_path / f"{tag}.csv"
        bc = tmp_path / f"{tag}_bc.csv"
        run_cli("gen", "fibsphere", "--n", "60", "--out", str(pts))
        run_cli("persist", str(pts), "--eps", "0.6", "--max-dim", "2", "--out", str(bc))
        outs.append(bc.read_bytes())
    assert outs[0] == outs[1]


def test_cli_entry_point_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "phom.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "persist" in proc.stdout and "compare" in proc.stdout


def test_cli_refuses_distances_beyond_float_range(tmp_path):
    # a fresh process shows what numpy prints on its first overflow
    pts = tmp_path / "far.csv"
    pts.write_text("1e200,0\n-1e200,0\n")
    proc = subprocess.run(
        [sys.executable, "-m", "phom.cli", "vr", str(pts), "--eps", "1", "--max-dim", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert "float range" in proc.stderr and "RuntimeWarning" not in proc.stderr


def _flags(parser, command=()):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _flags(sub, command + (name,))
        for flag in action.option_strings:
            if flag.startswith("--") and flag != "--help":
                yield " ".join(command), flag


def test_readme_names_every_cli_flag():
    missing = [
        (command, flag)
        for command, flag in _flags(phom.cli._make_parser())
        if not re.search(re.escape(flag) + r"(?![\w-])", README)
    ]
    assert missing == []


def test_readme_walkthrough_prints_what_it_says(tmp_path, monkeypatch, capsys):
    # each phom line of the walkthrough runs in an empty directory; a comment
    # line right below a command states what that command prints or writes
    monkeypatch.chdir(tmp_path)
    block = README.split("## CLI walkthrough", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    ran, last = [], None
    for line in block.splitlines():
        code, _, note = (part.strip() for part in line.partition("#"))
        if code:
            argv = shlex.split(code)
            assert argv[0] == "phom", line
            # gen msd's default grid reaches negative stiffness, and says so
            with (
                pytest.warns(UserWarning, match="negative effective stiffness")
                if argv[1:3] == ["gen", "msd"]
                else contextlib.nullcontext()
            ):
                assert main(argv[1:]) == 0, line
            last = [argv[1:], capsys.readouterr().out, note]
            ran.append(last)
        elif note and last is not None:
            last[2] = note
        last = last if line else None
    stated = [(argv[0], note) for argv, _, note in ran if note]
    assert stated == [
        ("vr", "dim 0: 500 / dim 1: 1797 / dim 2: 1602 / dim 3: 303 / total: 4202"),
        ("betti", "[1,0,1]"),
        ("betti", "[1,0,0,0]"),
        ("persist", "913 bars, of dims 0-3 only: a barcode stops below --max-dim"),
    ]
    for argv, out, note in ran:
        if argv[0] == "vr" and note:
            assert " / ".join(out.splitlines()) == note
        elif argv[0] == "betti" and note:
            assert out.strip() == note
        elif argv[0] == "persist" and note:
            rows = pathlib.Path(argv[argv.index("--out") + 1]).read_text().splitlines()[1:]
            assert len(rows) == 913 and {row.split(",")[0] for row in rows} == {"0", "1", "2", "3"}
    assert len(ran) == 11 and ran[-1][1].startswith("d_Wp = ")
