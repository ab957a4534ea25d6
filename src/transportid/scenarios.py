"""Benchmark column-transport scenarios.

All presets share the same soil column (porosity 0.37, bulk density
1.587 g/cm3, dispersivity 1 cm) and a 200 s inlet pulse at 0.05 mg/l;
they differ in the sorption law and, for the fast variants, in the
groundwater velocity and measurement window.  The presets measured every
0.5 s take one BDF2 step per measurement interval; the fast variants,
measured every 0.1 s, keep backward Euler at their 0.1 s step.
"""

from __future__ import annotations

from .errors import ValidationError
from .transport import ScenarioConfig, SorptionModel

__all__ = ["scenario_names", "get_scenario", "true_coefficients",
           "true_parameters"]

_COMMON = dict(v_x=0.01, alpha_l=1.0, theta=0.37, rho_b=1.587,
               t_pulse=200.0, c0=0.05)

_FAST = dict(v_x=0.05, meas_t_start=180.0, meas_t_end=300.0, meas_dt=0.1)


def _base(sorption: SorptionModel) -> ScenarioConfig:
    return ScenarioConfig(sorption=sorption, sim_dt=0.5, sim_order=2, **_COMMON)


def _fast(sorption: SorptionModel) -> ScenarioConfig:
    cfg = dict(_COMMON)
    cfg.update(_FAST)
    return ScenarioConfig(sorption=sorption, **cfg)


# Built once; the configs are frozen, so every caller can share them.
_PRESETS = {
    "s1": _base(SorptionModel.none()),
    "s2": _base(SorptionModel.freundlich(k_f=0.05, a=0.7)),
    "s3": _base(SorptionModel.langmuir(k_l=100.0, s_bar=0.003)),
    "s2-kf01": _base(SorptionModel.freundlich(k_f=0.1, a=0.7)),
    "s3-kl60": _base(SorptionModel.langmuir(k_l=60.0, s_bar=0.003)),
    "s2-fast": _fast(SorptionModel.freundlich(k_f=0.05, a=0.7)),
    "s3-fast": _fast(SorptionModel.langmuir(k_l=100.0, s_bar=0.003)),
}


def scenario_names() -> tuple:
    return tuple(sorted(_PRESETS))


def get_scenario(name: str) -> ScenarioConfig:
    try:
        return _PRESETS[name]
    except KeyError:
        raise ValidationError(
            f"unknown scenario {name!r}; known: {sorted(_PRESETS)}") from None


def true_coefficients(name: str) -> dict:
    """Generating-model coefficients keyed by candidate-term id.

    Only the terms that actually drive the scenario appear; a correct
    identification should recover these values and prune the rest.
    """
    cfg = get_scenario(name)
    out = {"adv": -cfg.v_x, "dis": cfg.d_l}
    ratio = cfg.rho_b / cfg.theta
    s = cfg.sorption
    if s.kind == "freundlich":
        out["fsorp"] = -ratio * s.a * s.k_f
    elif s.kind == "langmuir":
        out["lsorp"] = -ratio * s.k_l * s.s_bar
    return out


def true_parameters(name: str) -> dict:
    """Embedded parameters the scenario was generated with, by name.

    Empty for the sorption-free scenario; the parameter of the absent
    sorption model is not listed because no data constrain it.
    """
    s = get_scenario(name).sorption
    if s.kind == "freundlich":
        return {"a": s.a}
    if s.kind == "langmuir":
        return {"K_l": s.k_l}
    return {}

