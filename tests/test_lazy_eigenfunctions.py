"""discretize computes only the eigenvalues (eigvalsh on the even and odd
blocks); MercerDecomposition.eigenfunctions runs eigh on the same blocks on
first access and leaves the eigenvalues as they were."""

import tracemalloc

import numpy as np
import pytest

from pdext.cli import main
from pdext.kernels import kernel_from_name, tabulated_kernel
from pdext.mercer import NystromConfig, discretize


def _gaussian_table():
    x = np.linspace(0.0, 1.0, 33)
    return tabulated_kernel(x, np.exp(-2.0 * x * x), -4.0 * x * np.exp(-2.0 * x * x))


KERNELS = {"exp": lambda: kernel_from_name("exp"),
           "triangle": lambda: kernel_from_name("triangle"),
           "table": _gaussian_table}


def test_peaks_of_the_spectrum_and_of_the_first_access(kexp):
    n = 1000
    discretize(kexp, NystromConfig(16)).eigenfunctions     # first-call set-up
    tracemalloc.start()
    try:
        dec = discretize(kexp, NystromConfig(n))
        spectrum_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        dec.eigenfunctions
        access_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert spectrum_peak <= 0.75 * n * n * 8
    assert access_peak <= 2.0 * n * n * 8


def test_first_access_leaves_the_eigenvalues_alone(ktri):
    dec = discretize(ktri, NystromConfig(301))
    before = dec.eigenvalues.copy()
    xi = dec.eigenfunctions
    assert np.array_equal(dec.eigenvalues, before)
    assert dec.eigenfunctions is xi


@pytest.mark.parametrize("n", [16, 17, 300, 301])
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_each_column_belongs_to_its_eigenvalue(name, n):
    # a vector written to the wrong column leaves a residual of the order of
    # the gap between the two eigenvalues
    kernel = KERNELS[name]()
    dec = discretize(kernel, NystromConfig(n))
    x, h = dec.nodes, dec.weights[0]
    A = h * kernel(x[:, None] - x[None, :]).real
    v = dec.eigenfunctions * np.sqrt(h)     # unit 2-norm eigenvectors of A
    lam = dec.eigenvalues
    residual = np.linalg.norm(A @ v - v * lam, axis=0)
    assert np.max(residual) <= 1e-13 * lam[0]


def test_cli_mercer_runs_no_eigh(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.eigh called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    assert main(["mercer", "--kernel", "triangle", "--nodes", "400", "--n", "5"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert len(rows) == 6 and all(r.endswith(",matched") for r in rows[1:])
    with pytest.raises(AssertionError, match="eigh called"):
        discretize(kernel_from_name("triangle"), NystromConfig(16)).eigenfunctions
