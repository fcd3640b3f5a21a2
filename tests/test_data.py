import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hiermogp.data import (
    CsvSchemaError,
    HierarchicalDataset,
    OutputRecord,
    ReplicaBlock,
    SplitPlan,
    SyntheticConfig,
    generate_synthetic,
    load_csv,
    read_json,
    read_table,
    save_csv,
    split,
    standardize_dataset,
    write_columns,
)
from hiermogp.kernels import MATERN32, RBF, StationaryKernel, eval_stationary


@pytest.mark.parametrize("noise", [np.nan, np.inf, -0.1])
def test_synthetic_config_rejects_bad_noise(noise):
    with pytest.raises(ValueError, match="noise_variance"):
        SyntheticConfig(noise_variance=noise)


def test_default_protocol_shape():
    config = SyntheticConfig()
    dataset = generate_synthetic(config, seed=0)
    assert dataset.n_outputs == 50
    assert dataset.n_replicas == 3
    assert dataset.input_dim == 1
    assert all(b.n_points == 10 for o in dataset.outputs for b in o.replicas)
    assert dataset.metadata["generator"]["latent_dim"] == 2


def test_generation_deterministic_under_seed():
    config = SyntheticConfig(n_outputs=3, n_replicas=2, points_per_replica=4)
    a = generate_synthetic(config, seed=5)
    b = generate_synthetic(config, seed=5)
    for oa, ob in zip(a.outputs, b.outputs):
        for ra, rb in zip(oa.replicas, ob.replicas):
            assert np.array_equal(ra.inputs, rb.inputs)
            assert np.array_equal(ra.targets, rb.targets)


def test_shared_latent_and_inputs_give_identical_outputs():
    # with zero noise and the latent kernel at a single point (via a huge
    # lengthscale the latent Gram is constant), two outputs on one grid match
    config = SyntheticConfig(
        n_outputs=2,
        n_replicas=2,
        points_per_replica=5,
        latent_kernel=StationaryKernel("rbf", 1.0, [1e8, 1e8]),
        noise_variance=0.0,
        share_inputs=True,
    )
    dataset = generate_synthetic(config, seed=1)
    for r in range(2):
        a = dataset.block(0, r).targets
        b = dataset.block(1, r).targets
        assert np.allclose(a, b, atol=1e-5)


def test_marginal_variance_of_targets():
    # over many seeds, the sample variance approaches
    # latent_variance * (shared + replica variance) + noise
    config = SyntheticConfig(n_outputs=8, n_replicas=2, points_per_replica=6)
    samples = []
    for seed in range(50):
        dataset = generate_synthetic(config, seed=seed)
        values = np.concatenate(
            [b.targets for o in dataset.outputs for b in o.replicas]
        )
        samples.append(values)
    values = np.concatenate(samples)
    expected = 1.0 * (0.1 + 1.0) + 0.02
    got = values.var()
    # correlated draws inflate the error bar; stay within a loose band
    assert abs(got - expected) < 0.25, (got, expected)


def test_sample_covariance_matches_kernel():
    # repeated generation on a frozen 3-point grid: empirical covariance of
    # one output's replica converges to the kernel Gram
    base = SyntheticConfig(
        n_outputs=1,
        n_replicas=1,
        points_per_replica=3,
        noise_variance=0.0,
        latent_kernel=StationaryKernel("rbf", 1.0, [1e8, 1e8]),
    )
    draws = []
    grid = None
    for seed in range(2000):
        dataset = generate_synthetic(base, seed=seed)
        block = dataset.block(0, 0)
        if grid is None:
            grid = block.inputs
        # grids differ per seed; regenerate only targets by interpolation is
        # not possible, so draw covariance entries from scaled distances
        draws.append((block.inputs, block.targets))
    # pool pairs with similar separation and compare to the kernel curve
    hier_value = []
    kernel_value = []
    spec_g = base.shared_kernel
    spec_f = base.replica_kernel
    for inputs, targets in draws[:500]:
        hier_value.append(targets[0] * targets[1])
        kernel_value.append(
            eval_stationary(spec_g, inputs[:1], inputs[1:2])[0, 0]
            + eval_stationary(spec_f, inputs[:1], inputs[1:2])[0, 0]
        )
    # E[f(x0) f(x1)] = k(x0, x1); compare averages over instances
    se = np.std(np.array(hier_value) - np.array(kernel_value)) / np.sqrt(len(hier_value))
    assert abs(np.mean(hier_value) - np.mean(kernel_value)) < 5 * se + 0.05


def test_csv_roundtrip(tmp_path):
    config = SyntheticConfig(n_outputs=3, n_replicas=2, points_per_replica=4)
    dataset = generate_synthetic(config, seed=2)
    path = tmp_path / "data.csv"
    save_csv(dataset, path)
    loaded = load_csv(path)
    assert loaded.n_outputs == 3
    assert loaded.n_replicas == 2
    for d in range(3):
        for r in range(2):
            assert np.allclose(loaded.block(d, r).inputs, dataset.block(d, r).inputs, atol=1e-12)
            assert np.allclose(loaded.block(d, r).targets, dataset.block(d, r).targets, atol=1e-12)
    assert loaded.metadata["generator"]["seed"] == 2


def test_sidecar_holds_the_generator_config_and_its_seed(tmp_path):
    config = SyntheticConfig(
        n_outputs=2, n_replicas=2, points_per_replica=3, input_dim=2, share_inputs=True, noise_variance=0.0,
        shared_kernel=StationaryKernel(RBF, 0.3, [0.5, 2.0]),
    )
    save_csv(generate_synthetic(config, seed=7), tmp_path / "data.csv")

    def written(value):
        if isinstance(value, StationaryKernel):
            return {"family": value.family, "variance": value.variance, "lengthscales": value.lengthscales.tolist()}
        return value

    expected = {f.name: written(getattr(config, f.name)) for f in dataclasses.fields(SyntheticConfig)}
    assert read_json(tmp_path / "data.csv.meta.json") == {"generator": {"seed": 7, **expected}}


def test_csv_roundtrip_with_missing_replica(tmp_path):
    config = SyntheticConfig(n_outputs=2, n_replicas=3, points_per_replica=4)
    dataset = generate_synthetic(config, seed=3)
    train, _ = split(dataset, SplitPlan(mode="missing_replica", missing=[(0, 1)]))
    path = tmp_path / "train.csv"
    save_csv(train, path)
    loaded = load_csv(path)
    assert loaded.n_replicas == 3
    assert loaded.block(0, 1).n_points == 0
    assert loaded.block(1, 1).n_points == 4


def test_csv_parse_shape(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text(
        "output,replica,x_0,y\n"
        "0,0,0.1,1.0\n0,1,0.2,2.0\n0,2,0.3,3.0\n"
        "1,0,0.4,4.0\n1,1,0.5,5.0\n1,2,0.6,6.0\n"
    )
    dataset = load_csv(path)
    assert dataset.n_outputs == 2
    assert dataset.n_replicas == 3
    # written back: floats with 17 significant digits, index cells as integers
    save_csv(dataset, tmp_path / "back.csv")
    assert (tmp_path / "back.csv").read_text() == (
        "output,replica,x_0,y\n"
        "0,0,0.10000000000000001,1\n0,1,0.20000000000000001,2\n0,2,0.29999999999999999,3\n"
        "1,0,0.40000000000000002,4\n1,1,0.5,5\n1,2,0.59999999999999998,6\n"
    )


def test_table_and_sidecar_with_a_byte_order_mark_read_as_without(tmp_path):
    # spreadsheets save "CSV UTF-8" with a leading byte-order mark
    text = "output,replica,x_0,y\n0,0,0.1,1.0\n0,1,0.2,2.0\n1,0,0.4,4.0\n1,1,0.5,5.0\n"
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    expected, loaded = load_csv(plain), load_csv(marked)
    assert (loaded.n_outputs, loaded.n_replicas) == (expected.n_outputs, expected.n_replicas)
    for d in range(2):
        for r in range(2):
            assert np.array_equal(loaded.block(d, r).inputs, expected.block(d, r).inputs)
            assert np.array_equal(loaded.block(d, r).targets, expected.block(d, r).targets)
    sidecar = tmp_path / "marked.csv.meta.json"
    sidecar.write_text('{"standardize": {"mean": 1.5}}', encoding="utf-8-sig")
    assert read_json(sidecar) == {"standardize": {"mean": 1.5}}


def test_gene_protocol_shape_accepted(tmp_path):
    # 4 outputs, 8 replicas, up to 10 time points each on a shared grid
    rng = np.random.default_rng(4)
    grid = np.linspace(0, 1, 10)
    rows = ["output,replica,x_0,y"]
    for d in range(4):
        for r in range(8):
            keep = np.sort(rng.choice(10, size=rng.integers(5, 11), replace=False))
            for i in keep:
                rows.append(f"{d},{r},{grid[i]},{rng.standard_normal()}")
    path = tmp_path / "gene.csv"
    path.write_text("\n".join(rows) + "\n")
    dataset = load_csv(path)
    assert dataset.n_outputs == 4
    assert dataset.n_replicas == 8
    assert all(b.n_points <= 10 for o in dataset.outputs for b in o.replicas)


# every finite float, and the extremes: the smallest subnormal, a larger one,
# the largest float and a negative zero
_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([5e-324, -1e-310, 1.7976931348623157e308, -0.0]),
)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    n=st.integers(1, 8),
    v=st.integers(1, 3),
    tail=st.sampled_from([("y",), ("mean", "variance")]),
)
def test_read_table_returns_what_write_columns_wrote_bit_for_bit(tmp_path_factory, data, n, v, tail):
    indices = data.draw(arrays(np.int64, (n, 2), elements=st.integers(0, 10**6)))
    inputs = data.draw(arrays(np.float64, (n, v), elements=_CELLS))
    values = data.draw(arrays(np.float64, (n, len(tail)), elements=_CELLS))
    path = tmp_path_factory.mktemp("table") / "table.csv"
    write_columns(path, (indices[:, 0], indices[:, 1], inputs, *values.T), tail)
    outputs, replicas, got_inputs, got_values, line_nos = read_table(path, tail)
    assert outputs.tolist() == indices[:, 0].tolist() and replicas.tolist() == indices[:, 1].tolist()
    assert got_inputs.shape == inputs.shape and got_inputs.tobytes() == inputs.tobytes()
    assert got_values.shape == values.shape and got_values.tobytes() == values.tobytes()
    assert line_nos.tolist() == list(range(2, n + 2))


def test_load_csv_groups_rows_into_blocks_in_file_order(tmp_path):
    path = tmp_path / "shuffled.csv"
    path.write_text("output,replica,x_0,y\n1,0,0.3,3\n0,1,0.2,2\n\n1,0,0.1,1\n0,1,0.4,4\n0,0,0.5,5\n")
    dataset = load_csv(path)
    assert (dataset.n_outputs, dataset.n_replicas) == (2, 2)
    assert dataset.block(1, 0).inputs.tolist() == [[0.3], [0.1]]
    assert dataset.block(1, 0).targets.tolist() == [3.0, 1.0]
    assert dataset.block(0, 1).inputs.tolist() == [[0.2], [0.4]]
    assert dataset.block(0, 0).targets.tolist() == [5.0]
    assert dataset.block(1, 1).inputs.shape == (0, 1) and dataset.block(1, 1).targets.shape == (0,)


def test_load_csv_bounds_the_blocks_its_indices_span(tmp_path):
    # an index of 10^9 would build 10^9 empty blocks: the file fails before
    # any is built and names the row; a gap between indices still loads
    huge = {"output": "0,0,0.5,1\n1000000000,0,0.2,2\n", "replica": "0,1000000000,0.5,1\n1,0,0.2,2\n"}
    for kind, rows in huge.items():
        path = tmp_path / f"huge_{kind}.csv"
        path.write_text("output,replica,x_0,y\n" + rows)
        line = 3 if kind == "output" else 2
        with pytest.raises(CsvSchemaError, match=rf"huge_{kind}.csv:{line}: output \d+, replica \d+ would make"):
            load_csv(path)
    gap = tmp_path / "gap.csv"
    gap.write_text("output,replica,x_0,y\n0,0,0.5,1.0\n999,2,0.25,2.0\n")
    dataset = load_csv(gap)
    assert (dataset.n_outputs, dataset.n_replicas, dataset.n_points) == (1000, 3, 2)
    assert dataset.block(999, 2).targets.tolist() == [2.0] and dataset.block(500, 1).n_points == 0


def test_csv_schema_errors(tmp_path):
    bad_header = tmp_path / "bad1.csv"
    bad_header.write_text("a,b,c\n")
    with pytest.raises(CsvSchemaError, match="header"):
        load_csv(bad_header)
    bad_field = tmp_path / "bad2.csv"
    bad_field.write_text("output,replica,x_0,y\n0,0,oops,1.0\n")
    with pytest.raises(CsvSchemaError, match="bad2.csv:2"):
        load_csv(bad_field)
    short_row = tmp_path / "bad3.csv"
    short_row.write_text("output,replica,x_0,y\n0,0,1.0\n")
    with pytest.raises(CsvSchemaError, match="expected 4 fields"):
        load_csv(short_row)


@pytest.mark.parametrize("row", ["0,0,inf,1.0", "0,0,0.5,nan", "0,0,-inf,1.0", "0,0,0.5,NaN"])
def test_csv_rejects_non_finite_values(tmp_path, row):
    path = tmp_path / "nonfinite.csv"
    path.write_text(f"output,replica,x_0,y\n0,0,0.1,0.2\n{row}\n")
    with pytest.raises(CsvSchemaError, match="nonfinite.csv:3: non-finite value"):
        load_csv(path)


def test_standardization_on_load(tmp_path):
    config = SyntheticConfig(n_outputs=2, n_replicas=2, points_per_replica=6)
    dataset = generate_synthetic(config, seed=6)
    path = tmp_path / "raw.csv"
    save_csv(dataset, path)
    loaded = load_csv(path, standardize=True)
    ys = np.concatenate([b.targets for o in loaded.outputs for b in o.replicas])
    xs = np.concatenate([b.inputs for o in loaded.outputs for b in o.replicas])
    assert abs(ys.mean()) < 1e-12
    assert abs(ys.std() - 1.0) < 1e-12
    assert np.all(np.abs(xs.mean(axis=0)) < 1e-12)
    constants = loaded.metadata["standardization"]
    assert constants["y_std"] > 0


def test_split_fraction_even():
    config = SyntheticConfig(n_outputs=2, n_replicas=2, points_per_replica=10)
    dataset = generate_synthetic(config, seed=7)
    train, test = split(dataset, SplitPlan(mode="random_fraction", fraction=0.5, seed=0))
    for d in range(2):
        for r in range(2):
            assert train.block(d, r).n_points == 5
            assert test.block(d, r).n_points == 5


def test_split_union_and_disjointness():
    config = SyntheticConfig(n_outputs=2, n_replicas=2, points_per_replica=7)
    dataset = generate_synthetic(config, seed=8)
    train, test = split(dataset, SplitPlan(mode="random_fraction", fraction=0.4, seed=3))
    for d in range(2):
        for r in range(2):
            full = set(map(float, dataset.block(d, r).inputs[:, 0]))
            tr = set(map(float, train.block(d, r).inputs[:, 0]))
            te = set(map(float, test.block(d, r).inputs[:, 0]))
            assert tr | te == full
            assert not (tr & te)
            assert len(tr) >= 1


def test_split_deterministic():
    config = SyntheticConfig(n_outputs=2, n_replicas=2, points_per_replica=9)
    dataset = generate_synthetic(config, seed=9)
    a_train, _ = split(dataset, SplitPlan(mode="random_fraction", fraction=0.5, seed=4))
    b_train, _ = split(dataset, SplitPlan(mode="random_fraction", fraction=0.5, seed=4))
    for d in range(2):
        for r in range(2):
            assert np.array_equal(a_train.block(d, r).inputs, b_train.block(d, r).inputs)


def test_split_missing_replica_blocks():
    config = SyntheticConfig(n_outputs=2, n_replicas=3, points_per_replica=5)
    dataset = generate_synthetic(config, seed=10)
    train, test = split(dataset, SplitPlan(mode="missing_replica", missing=[(0, 1)]))
    assert train.block(0, 1).n_points == 0
    assert test.block(0, 1).n_points == 5
    assert train.block(1, 1).n_points == 5
    assert test.block(1, 1).n_points == 0


def test_split_missing_replica_guards():
    config = SyntheticConfig(n_outputs=1, n_replicas=2, points_per_replica=5)
    dataset = generate_synthetic(config, seed=11)
    with pytest.raises(ValueError, match="observed replica"):
        split(dataset, SplitPlan(mode="missing_replica", missing=[(0, 0), (0, 1)]))
    with pytest.raises(ValueError, match="outside"):
        split(dataset, SplitPlan(mode="missing_replica", missing=[(5, 0)]))


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_split_missing_random_draws_one_replica_per_output_from_the_seed(seed):
    # one draw per output, in output order, from the plan's seed
    dataset = generate_synthetic(SyntheticConfig(n_outputs=6, n_replicas=4, points_per_replica=3), seed=2)
    train, test = split(dataset, SplitPlan(mode="missing_replica", missing="random", seed=seed))
    rng = np.random.default_rng(seed)
    expected = [(d, int(rng.integers(4))) for d in range(6)]
    held_out = [(d, r) for d in range(6) for r in range(4) if test.block(d, r).n_points]
    assert held_out == expected
    assert all(train.block(d, r).n_points == 0 for d, r in expected)
    assert train.n_points + test.n_points == dataset.n_points


@pytest.mark.parametrize("missing", [[(0,)], [(0, 1.5)], "some", [(0, True)], 3])
def test_split_plan_rejects_malformed_missing(missing):
    with pytest.raises(ValueError, match="^missing: expected 'random' or a list of"):
        SplitPlan(mode="missing_replica", missing=missing)


def test_split_that_holds_out_nothing_names_the_plan_field():
    dataset = generate_synthetic(SyntheticConfig(n_outputs=2, n_replicas=2, points_per_replica=8), seed=3)
    with pytest.raises(ValueError, match="^fraction: 0.99 holds out no point"):
        split(dataset, SplitPlan(mode="random_fraction", fraction=0.99))
    # replica 1 of output 0 has no observations, so holding it out holds out nothing
    block = dataset.block(0, 0)
    empty = ReplicaBlock(np.zeros((0, 1)), np.zeros(0))
    ragged = HierarchicalDataset(outputs=[OutputRecord([block, empty]), OutputRecord([block, block])])
    with pytest.raises(ValueError, match="^missing: the held-out blocks have no observations"):
        split(ragged, SplitPlan(mode="missing_replica", missing=[(0, 1)]))


def test_split_plan_validation():
    with pytest.raises(ValueError):
        SplitPlan(mode="bogus")
    with pytest.raises(ValueError):
        SplitPlan(mode="random_fraction", fraction=1.5)
    with pytest.raises(ValueError):
        SplitPlan(mode="missing_replica", missing=[])


def test_dataset_validation():
    block = ReplicaBlock(inputs=np.zeros((2, 1)), targets=np.zeros(2))
    with pytest.raises(ValueError, match="same number of replicas"):
        HierarchicalDataset(
            outputs=[
                OutputRecord(replicas=[block]),
                OutputRecord(replicas=[block, block]),
            ]
        )
    with pytest.raises(ValueError, match="targets"):
        ReplicaBlock(inputs=np.zeros((2, 1)), targets=np.zeros(3))
