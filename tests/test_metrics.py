import numpy as np
import pytest

from hiermogp.metrics import EvalReport, evaluate, nlpd, nmse

from .helpers import run_child


def test_perfect_prediction_scores_zero():
    y = np.array([0.0, 1.0, 2.0])
    assert nmse(y, y) == 0.0


def test_constant_mean_prediction_scores_one():
    y = np.array([0.0, 1.0, 2.0])
    assert np.isclose(nmse(y, np.full(3, y.mean())), 1.0)


def test_nmse_hand_value():
    assert np.isclose(nmse([0.0, 1.0, 2.0], [0.0, 0.0, 0.0]), 2.5, rtol=0, atol=1e-12)


def test_nmse_guards():
    with pytest.raises(ValueError):
        nmse([1.0, 1.0], [0.0, 0.0])
    with pytest.raises(ValueError):
        nmse([1.0], [0.0])
    with pytest.raises(ValueError):
        nmse([1.0, 2.0], [0.0])


def test_nmse_shift_invariance_through_test_mean():
    rng = np.random.default_rng(0)
    y = rng.standard_normal(20)
    pred = rng.standard_normal(20)
    for shift in (-3.0, 0.5, 10.0):
        assert np.isclose(nmse(y + shift, pred + shift), nmse(y, pred), rtol=0, atol=1e-12)


def test_nlpd_hand_values():
    assert np.isclose(nlpd([1.0], [1.0], [1.0]), 0.5 * np.log(2 * np.pi), atol=1e-12)
    assert np.isclose(nlpd([1.0], [0.0], [1.0]), 0.5 * (1.0 + np.log(2 * np.pi)), atol=1e-12)


def test_nlpd_diverges_with_variance():
    values = [nlpd([0.0], [1.0], [v]) for v in (1.0, 1e4, 1e8)]
    assert values[0] < values[1] < values[2]


def test_nlpd_guards():
    with pytest.raises(ValueError):
        nlpd([1.0], [1.0], [0.0])
    with pytest.raises(ValueError):
        nlpd([1.0, 2.0], [1.0], [1.0])


def test_nlpd_minimised_at_squared_residual():
    rng = np.random.default_rng(1)
    residual = rng.standard_normal(6)
    y = rng.standard_normal(6)
    mean = y - residual

    def value(variances):
        return nlpd(y, mean, variances)

    opt = residual**2
    base = value(opt)
    step = 1e-6
    for i in range(6):
        bump = opt.copy()
        bump[i] += step
        dip = opt.copy()
        dip[i] -= step
        derivative = (value(bump) - value(dip)) / (2 * step)
        assert abs(derivative) < 1e-6
        assert value(bump) >= base - 1e-12
        assert value(dip) >= base - 1e-12


def test_evaluate_pooled_and_per_output():
    y = np.array([0.0, 1.0, 2.0, 5.0, 5.0, 8.0])
    mean = np.array([0.0, 1.0, 2.0, 5.0, 6.0, 7.0])
    var = np.ones(6)
    outputs = np.array([0, 0, 0, 1, 1, 1])
    report = evaluate(y, mean, var, outputs)
    assert report.n_test == 6
    assert np.isclose(report.nmse, nmse(y, mean))
    assert np.isclose(report.nlpd, nlpd(y, mean, var))
    assert len(report.per_output) == 2
    d0 = report.per_output[0]
    assert d0[0] == 0 and d0[1] == 0.0
    payload = report.to_dict()
    assert payload["per_output"][1]["output"] == 1


def test_evaluate_handles_constant_output_block():
    y = np.array([1.0, 1.0, 0.0, 2.0])
    mean = np.array([1.0, 1.0, 0.5, 1.5])
    report = evaluate(y, mean, np.ones(4), [0, 0, 1, 1])
    assert np.isnan(report.per_output[0][1])
    assert np.isfinite(report.per_output[0][2])


def test_evaluate_leaves_numpy_ma_unloaded():
    # the package never uses numpy.ma, and importing it costs a fresh process 11-18 ms
    result = run_child(
        "-c",
        "import sys; import numpy as np; from hiermogp.metrics import evaluate; "
        "evaluate(np.arange(4.0), np.arange(4.0) + 0.1, np.ones(4), np.array([1, 0, 1, 0])); "
        "print('numpy.ma' in sys.modules)",
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
