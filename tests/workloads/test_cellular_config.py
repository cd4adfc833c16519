"""Cellular and Newton-solver configurations are validated where they are
built, so a bad sweep spec is rejected before any work instead of failing
inside a worker (``n_steps=0`` used to reach ``CellularWorkload.error`` with
no front positions and die there with an ``IndexError``)."""
import pytest

from repro.eos import NewtonSolverConfig
from repro.experiments import AdaptiveSpec, SweepSpec
from repro.workloads.cellular import CellularConfig

BAD_CELLULAR = [
    dict(n_cells=1),
    dict(n_steps=0),
    dict(cfl=0.0),
    dict(cfl=5.0),
    dict(length=0.0),
    dict(fuel_density=-1.0),
    dict(ambient_temperature=0.0),
    dict(ignition_temperature=-3.5e9),
]

BAD_NEWTON = [
    dict(tolerance=0.0),
    dict(max_iterations=0),
    dict(relaxation=0.0),
    dict(max_step_factor=1.0),
    dict(temperature_floor=0.0),
    dict(temperature_floor=1e10, temperature_ceiling=1e9),
]


@pytest.mark.parametrize("kwargs", BAD_CELLULAR)
def test_cellular_config_rejects_unphysical_values(kwargs):
    with pytest.raises(ValueError):
        CellularConfig(**kwargs)


@pytest.mark.parametrize("kwargs", BAD_NEWTON)
def test_newton_config_rejects_bad_controls(kwargs):
    with pytest.raises(ValueError):
        NewtonSolverConfig(**kwargs)


def test_defaults_and_edge_values_are_accepted():
    CellularConfig()
    CellularConfig(n_cells=2, n_steps=1, cfl=1.0)
    NewtonSolverConfig()
    NewtonSolverConfig(relaxation=0.5, max_iterations=1)


@pytest.mark.parametrize("make_spec", [
    lambda configs: SweepSpec(workloads=["cellular"], formats=["e11m20"],
                              workload_configs=configs),
    lambda configs: AdaptiveSpec(workloads=["cellular"], workload_configs=configs),
])
@pytest.mark.parametrize("configs", [
    {"cellular": dict(n_steps=0, cfl=5.0)},
    {"cellular": dict(newton=NewtonSolverConfig(), cfl=-0.1)},
])
def test_specs_reject_bad_cellular_configs(make_spec, configs):
    with pytest.raises(ValueError, match="invalid workload_configs for 'cellular'"):
        make_spec(configs).validate()
