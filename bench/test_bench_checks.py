"""The benchmark's output checks accept correct outputs and reject altered ones."""

import json

import numpy as np
import pytest

import checks
import inputs


@pytest.fixture(scope="module")
def mesh(tmp_path_factory):
    inst = inputs.write_instances(tmp_path_factory.mktemp("mesh"), 3, [(3, True)])[0]
    doc = json.loads(inst.model.read_text())
    return np.array(doc["H"]), np.array(doc["z"])


def _estimate_text(h, z, theta, objective=None):
    if objective is None:
        objective = float(np.abs(z - h @ theta).sum())
    return json.dumps({"theta_hat": list(theta), "objective": objective})


def _detect_text(h):
    rows = []
    for j in range(h.shape[0]):
        opt, v = checks.leverage_lp(h, j)
        row = {"index": j, "verdict": "clean"}
        if opt <= 1.0 + checks.FLAG_TOL:
            proj = np.abs(h @ v)
            row["verdict"] = "boundary"
            row["witness"] = {"v": list(v), "s": float(proj.sum() - proj[j]),
                              "q": float(proj[j])}
        rows.append(row)
    return {"rows": rows}


def test_estimate_check_accepts_optimum_and_rejects_perturbed_objective(mesh):
    h, z = mesh
    objective, theta = checks.lav_fit(h, z)
    assert checks.check_estimate(h, z, _estimate_text(h, z, theta), objective) == []
    perturbed = _estimate_text(h, z, theta, objective * (1 + 1e-4))
    assert checks.check_estimate(h, z, perturbed, objective)
    suboptimal = theta + 1e-3
    assert checks.check_estimate(h, z, _estimate_text(h, z, suboptimal), objective)


def test_detect_check_accepts_reference_and_rejects_flipped_verdict(mesh):
    h, _ = mesh
    flags = checks.reference_flags(h)
    assert any(flags) and not all(flags)
    doc = _detect_text(h)
    assert checks.check_detect(h, json.dumps(doc), flags) == []

    flagged = flags.index(True)
    unflagged = dict(doc, rows=[dict(r) for r in doc["rows"]])
    unflagged["rows"][flagged] = {"index": flagged, "verdict": "clean"}
    assert checks.check_detect(h, json.dumps(unflagged), flags)

    clean = flags.index(False)
    promoted = dict(doc, rows=[dict(r) for r in doc["rows"]])
    promoted["rows"][clean] = dict(promoted["rows"][clean], verdict="leverage")
    assert checks.check_detect(h, json.dumps(promoted), flags)


def test_detect_check_rejects_wrong_witness_values(mesh):
    h, _ = mesh
    flags = checks.reference_flags(h)
    doc = _detect_text(h)
    j = flags.index(True)
    doc["rows"][j]["witness"]["s"] *= 1 + 1e-6
    assert checks.check_detect(h, json.dumps(doc), flags)


def test_ps_and_build_checks_reject_wrong_shapes_and_values(mesh):
    h, _ = mesh
    dof = [int(d) for d in np.count_nonzero(h, axis=1)]
    good = {"ps": [0.0] * h.shape[0], "dof": dof}
    assert checks.check_ps(h, json.dumps(good)) == []
    assert checks.check_ps(h, json.dumps(dict(good, dof=[d + 1 for d in dof])))
    assert checks.check_ps(h, json.dumps(dict(good, ps=[0.0])))

    labels = [f"m{i}" for i in range(h.shape[0])]
    built = {"labels": labels, "H": h.tolist()}
    assert checks.check_build(h, labels, json.dumps(built)) == []
    changed = h.copy()
    changed[0, 0] += 1e-3
    assert checks.check_build(h, labels, json.dumps(dict(built, H=changed.tolist())))


def test_reproduce_check_needs_pass_line():
    assert checks.check_passed("trials: 2000\nPASS: True\n") == []
    assert checks.check_passed("trials: 2000\nPASS: False\n")
