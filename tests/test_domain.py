"""The beta domain: one range of depths, checked where every beta evaluation starts.

Every entry point, in the library and in the CLI, answers at both ends of
``beta._DOMAIN`` with the doubles it gave before the check existed, and
refuses every depth outside it (one ulp beyond either end, NaN, +-inf, 0
and -1) with one ValueError before any solve.  A complex depth is a
TypeError, never its real part, and so are a str, bytes or bool depth and
a grid array that is not 1-D or holds bools, times or text.  Every other
number argument is read the same way: a real reads as its double, or an
integral one as its int, and anything else is refused by name.
"""

import math
import re
import warnings
from decimal import Decimal
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from stokes_isolas import (
    IsolaParams, beta, beta1, beta1_breakdown, beta_scan, eigenvalue_branch, ellipse_points, find_beta_zeros,
    omega_disp, omega_star, phase_speed, resonance_residual, solve_wavenumber,
)
from stokes_isolas.resonance import _collision_grid, _resonance_grid
from test_beta import _count_solves, _denominators_by_loop
from test_cli import parse_csv, run_cli

LO, HI = beta._DOMAIN

# beta1 at both ends of the domain and the zeros find_beta_zeros finds on all of it, as computed before the domain
# was checked: checking it moves no double inside it
AT_THE_ENDS = {
    2: ("-0x1.410e2b9cad79cp+1", "0x1.ee714408bb574p-19"),
    3: ("-0x1.7ebf8dfc8541dp+15", "0x1.7c00000000000p-50"),
    4: ("-0x1.0937345b5e0dbp+29", "0x1.e1fbdeb14f4eep-48"),
}
ZEROS = {2: ["0x1.d9728bc8cc191p+0"], 3: ["0x1.a42b575ab69e9p-1"], 4: ["0x1.221db9d37d124p-1", "0x1.418785ff0b8f3p+0"]}

OUTSIDE = [math.nextafter(LO, 0.0), math.nextafter(HI, math.inf), math.nan, math.inf, -math.inf, 0.0, -1.0]
OUTSIDE_IDS = ["below", "above", "nan", "inf", "-inf", "0", "-1"]


def refusal(h) -> str:
    return f"depth must lie within [0.05, 20.0], got h={h!r}"


def entry_points(p):
    """Each beta entry point of the library as a function of one depth, returning beta1 there."""
    return {
        "beta1": lambda h: beta1(p, h),
        "beta1_breakdown": lambda h: beta1_breakdown(p, h).total,
        "beta_scan": lambda h: beta_scan(p, [h])[0].beta1,
        # an array grid of _LANES_FROM depths or more: the lane solve
        "beta_scan-lanes": lambda h: beta_scan(p, np.append(np.linspace(1.0, 2.0, 120), h))[-1].beta1,
        "from_depth": lambda h: IsolaParams.from_depth(p, h, 0.1, 1.0, 0.5).beta1,
    }


def zeros_ends(p):
    """find_beta_zeros with the depth as one end and the domain's other end as the other."""
    return {"zeros-min": lambda h: find_beta_zeros(p, h, HI), "zeros-max": lambda h: find_beta_zeros(p, LO, h)}


@pytest.mark.parametrize("p", [2, 3, 4])
def test_no_denominator_near_zero_on_the_domain(p):
    # the premise that lets the terms go unguarded: on a dense grid of the domain, both ends included, every
    # denominator j*c - s*Omega_j - Omega_0 the terms divide by is at least 1e-4 in magnitude (the least is
    # 5.6e-4, at p = 2 and h = 0.05) and every term the emitted rule returns is finite.  A wider domain meets this
    # test first.
    hs = np.linspace(LO, HI, 40001)
    assert (hs[0], hs[-1]) == beta._DOMAIN
    rd = _resonance_grid(p, hs)
    assert np.abs(_denominators_by_loop(p, rd.Omega, rd.c)).min() >= 1e-4
    assert np.isfinite(beta._plan(p)(rd.Omega, rd.t, rd.c, np.sqrt(rd.Omega[0] * rd.Omega[p]))).all()


class TestLibrary:
    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_both_ends_answer_as_before(self, p):
        for name, call in entry_points(p).items():
            assert [call(h).hex() for h in beta._DOMAIN] == list(AT_THE_ENDS[p]), name
        assert [z.hex() for z in find_beta_zeros(p, LO, HI)] == ZEROS[p]

    @pytest.mark.parametrize("h", OUTSIDE, ids=OUTSIDE_IDS)
    @pytest.mark.parametrize("name", [*entry_points(2), *zeros_ends(2)])
    def test_outside_is_refused_before_any_solve(self, monkeypatch, name, h):
        call = (entry_points(2) | zeros_ends(2))[name]
        solves = _count_solves(monkeypatch)
        with pytest.raises(ValueError) as err:
            call(h)
        assert (type(err.value), str(err.value)) == (ValueError, refusal(h))
        assert solves == {"brentq": 0, "_brentq_lanes": 0}

    def test_from_depth_refuses_p_before_h(self):
        # as beta1 does: p is checked first, then the depth
        for call in (beta1, lambda p, h: IsolaParams.from_depth(p, h, 0.1, 1.0, 0.5)):
            with pytest.raises(ValueError, match=r"^closed-form coefficients exist for p in \{2, 3, 4\}, got 5$"):
                call(5, 25.0)


def _beta_value(out: str, row: int) -> str:
    return float(parse_csv(out)[row]["beta1"]).hex()


class TestCli:
    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_both_ends_answer_as_before(self, p):
        for i, h in enumerate(beta._DOMAIN):
            code, out, _ = run_cli("beta", "--p", str(p), "--h", repr(h))
            assert code == 0 and _beta_value(out, 0) == AT_THE_ENDS[p][i]
            code, out, _ = run_cli("isola", "--p", str(p), "--h", repr(h), "--eps", "0.1", "--T1", "1", "--E", "0.5")
            band = dict(re.findall(r"^# (\w+) = (.*)$", out, re.M))
            assert code == 0 and float(band["beta1"]).hex() == AT_THE_ENDS[p][i]
        code, out, _ = run_cli("beta", "--p", str(p), "--h-min", repr(LO), "--h-max", repr(HI), "--n", "3")
        assert code == 0 and (_beta_value(out, 0), _beta_value(out, 2)) == AT_THE_ENDS[p]
        code, out, _ = run_cli("zeros", "--p", str(p), "--h-min", repr(LO), "--h-max", repr(HI))
        assert code == 0 and [float(r["h_star"]).hex() for r in parse_csv(out)] == ZEROS[p]

    @pytest.mark.parametrize("h", OUTSIDE, ids=OUTSIDE_IDS)
    @pytest.mark.parametrize(
        "argv",
        [
            lambda h: ("beta", "--p", "3", "--h", h),
            lambda h: ("beta", "--p", "3", "--breakdown", "--h", h),
            lambda h: ("zeros", "--p", "3", "--h-min", h, "--h-max", repr(HI)),
            lambda h: ("zeros", "--p", "3", "--h-min", repr(LO), "--h-max", h),
            lambda h: ("isola", "--p", "3", "--h", h, "--eps", "0.1", "--T1", "1", "--E", "0.5"),
        ],
        ids=["beta", "beta-breakdown", "zeros-min", "zeros-max", "isola"],
    )
    def test_outside_is_a_usage_error(self, argv, h):
        assert run_cli(*argv(repr(h))) == (2, "", f"error: {refusal(h)}\n")

    @pytest.mark.parametrize("h", OUTSIDE, ids=OUTSIDE_IDS)
    def test_grid_outside_is_a_usage_error(self, h):
        # the domain refuses a grid's end as it refuses the same --h, NaN, +-inf, 0 and -1 included
        code, out, err = run_cli("beta", "--p", "3", "--h-min", repr(min(h, 1.0)), "--h-max", repr(max(h, 1.0)))
        assert (code, out, err) == (2, "", f"error: {refusal(h)}\n")


COMPLEX_DEPTHS = [np.complex128(1 + 1j), np.complex64(1 + 1j), 1 + 1j]


@pytest.mark.filterwarnings("error")  # a ComplexWarning would mean the real part was read
class TestComplexDepths:
    @pytest.mark.parametrize("h", COMPLEX_DEPTHS, ids=["complex128", "complex64", "complex"])
    def test_one_depth(self, h):
        calls = entry_points(2) | zeros_ends(2)
        del calls["beta_scan-lanes"]  # an array of complex dtype, whose first depth is named
        for call in (*calls.values(), lambda h: beta_scan(2, [1.0, h]), phase_speed):
            with pytest.raises(TypeError, match=f"^{re.escape(f'depth must be a real number, got {h!r}')}$"):
                call(h)

    @pytest.mark.parametrize("hs", [np.array([1 + 1j]), np.array([1 + 1j], dtype=np.complex64),
                                    [np.complex128(1 + 1j)], [1.0, 1 + 1j]],
                             ids=["complex128-array", "complex64-array", "complex128-list", "complex-list"])
    @pytest.mark.parametrize("grid", [beta_scan, _resonance_grid, _collision_grid])
    def test_grid(self, grid, hs):
        # beta and resonance grids read their depths alike (dispersion._read_depths)
        with pytest.raises(TypeError, match="^depth must be a real number, got "):
            grid(2, hs)

    def test_real_numpy_scalars_still_read(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert beta1(2, np.float32(1.5)) == beta1(2, 1.5)
            assert beta_scan(2, [np.float32(1.5), 2])[0] == beta_scan(2, [1.5, 2.0])[0]


@pytest.mark.filterwarnings("error")
class TestNonNumberDepths:
    # float() reads these as numbers; a depth must be a real number, or it is refused with a TypeError naming it
    @pytest.mark.parametrize("h", ["1.0", b"1.0", bytearray(b"1.0"), np.str_("1.0"), True],
                             ids=["str", "bytes", "bytearray", "numpy-str", "bool"])
    def test_one_depth(self, h):
        calls = entry_points(2) | zeros_ends(2)
        del calls["beta_scan-lanes"]  # an array, refused on its dtype (test_grid_array)
        if isinstance(h, bool):  # a list of bools still reads as floats on the list's fast path
            del calls["beta_scan"]
        else:
            calls["beta_scan-list"] = lambda h: beta_scan(2, [1.0, h])
        for call in (*calls.values(), phase_speed, lambda h: solve_wavenumber(2, h)):
            with pytest.raises(TypeError, match=f"^{re.escape(f'depth must be a real number, got {h!r}')}$"):
                call(h)

    def test_other_arguments_are_named(self):
        # as IsolaParams' fields are (tests/test_isola.py)
        with pytest.raises(TypeError, match=r"^phi must be a real number, got True$"):
            omega_disp(True, 1.0)

    @pytest.mark.parametrize(
        "hs",
        [np.array([True, True]), np.array([1, 2], dtype="timedelta64[D]"), np.array([1, 2], dtype="datetime64[D]"),
         np.array([b"1.0", b"2.0"]), np.array(["1.0", "2.0"]), np.array([[1.0, 2.0]]), np.array([[1.0], [2.0]]),
         np.array(1.0)],
        ids=["bool", "timedelta", "datetime", "bytes", "str", "row", "column", "0-d"],
    )
    @pytest.mark.parametrize("grid", [beta_scan, _resonance_grid, _collision_grid])
    def test_grid_array(self, grid, hs):
        message = f"depths must be a 1-D array of real numbers, got shape {hs.shape} and dtype {hs.dtype}"
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            grid(2, hs)

    @pytest.mark.parametrize("grid", [beta_scan, _resonance_grid, _collision_grid])
    def test_grid_list(self, grid):
        with pytest.raises(TypeError, match=r"^depth must be a real number, got '2.0'$"):
            grid(2, [1.0, "2.0"])

    def test_real_arrays_still_read(self):
        # integer, float32 and object arrays of real numbers read as before, element by element
        expected = beta_scan(2, [1.0, 2.0])
        for hs in (np.array([1, 2]), np.array([1.0, 2.0], dtype=np.float32), np.array([1.0, 2], dtype=object)):
            assert beta_scan(2, hs) == expected


def _params(p=2, h=1.0, E=0.5):
    return IsolaParams(p=p, h=h, eps=0.1, beta1=0.5, T1=1.0, E=E, y0=1.0, mu0=0.5)


# Each entry point as a function of its integer argument (p, n or j, with the plain value it is given here) and
# of a depth.  beta_scan reads its depth from a list: a list holding a numpy bool still reads as floats (ROADMAP
# item 14), so that one pairing is left out below.
READERS = {
    "beta1": ("p", 3, lambda p=3, h=1.0: beta1(p, h)),
    "solve_wavenumber": ("p", 3, lambda p=3, h=1.0: solve_wavenumber(p, h)),
    "beta_scan": ("p", 3, lambda p=3, h=1.0: beta_scan(p, [1.0, h])),
    "omega_star": ("p", 3, lambda p=3, h=1.0: omega_star(p, h)),
    "resonance_residual": ("p", 3, lambda p=3, h=1.0: resonance_residual(0.5, p, h)),
    "find_beta_zeros": ("p", 3, lambda p=3, h=0.5: find_beta_zeros(p, h, 3.0, 500)),
    "IsolaParams": ("p", 3, lambda p=3, h=1.0: _params(p=p, h=h)),
    "ellipse_points": ("n", 8, lambda n=8, h=1.0: ellipse_points(_params(h=h), n)),
    "eigenvalue_branch": ("j", 3, lambda j=3, h=1.0: eigenvalue_branch(j, 1, 0.1, h)),
}
NAMES = {"p": "isola index p", "n": "n", "j": "j"}


def _number_cases():
    """(call, its float or int counterpart's call, or None where the call must be refused, the name refused)."""
    for entry, (arg, plain, call) in READERS.items():
        for flag in (np.True_, np.False_):
            yield pytest.param(partial(call, **{arg: flag}), None, NAMES[arg], id=f"{entry}-{arg}={flag!r}")
        for kind in (np.float32, np.int8, np.uint64):
            yield pytest.param(partial(call, **{arg: kind(plain)}), partial(call, **{arg: plain}), None,
                               id=f"{entry}-{arg}={kind.__name__}")
        depth = 0.5 if entry == "find_beta_zeros" else 1.0
        named = "h" if entry in ("IsolaParams", "ellipse_points") else "depth"  # IsolaParams names its fields
        for h in ([] if entry == "beta_scan" else [np.True_]) + [Decimal(depth), None]:
            yield pytest.param(partial(call, h=h), None, named, id=f"{entry}-h={h!r}")
        for h in (np.array(depth), Fraction(depth), np.float16(depth)):
            yield pytest.param(partial(call, h=h), partial(call, h=depth), None, id=f"{entry}-h={type(h).__name__}")
    for tol in (True, "1e-8"):
        yield pytest.param(partial(find_beta_zeros, 4, 0.3, 3.0, tol=tol), None, "tol",
                           id=f"find_beta_zeros-tol={tol!r}")
    for E in ("0.5", Decimal("0.5")):
        yield pytest.param(partial(_params, E=E), None, "E", id=f"IsolaParams-E={E!r}")
    for sigma in (True, np.True_):
        yield pytest.param(partial(eigenvalue_branch, 0, sigma, 0.1, 1.0), None, "sigma",
                           id=f"eigenvalue_branch-sigma={sigma!r}")
    yield pytest.param(partial(resonance_residual, "0.1", 2, 1.0), None, "phi", id="resonance_residual-phi='0.1'")
    # a float32 bound is read as its double: the grid and the zeros are float64's
    yield pytest.param(partial(find_beta_zeros, 4, np.float32(0.3), 3.0),
                       partial(find_beta_zeros, 4, float(np.float32(0.3)), 3.0), None, id="find_beta_zeros-float32")


def _bits(x):
    """What two results must share to be the same doubles: an array's dtype and bytes, or else the repr."""
    return (x.dtype, x.tobytes()) if isinstance(x, np.ndarray) else repr(x)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call, counterpart, name", list(_number_cases()))
def test_number_argument_is_read_or_refused_by_name(call, counterpart, name):
    # a real gives its float or int counterpart's doubles; anything else is a TypeError or ValueError that names
    # its argument, never an OverflowError, a warning or a number
    if counterpart is not None:
        assert _bits(call()) == _bits(counterpart())
        return
    with pytest.raises((TypeError, ValueError)) as err:
        call()
    assert str(err.value).startswith(f"{name} must be ")
