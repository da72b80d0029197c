from sievelab import sweeps


def counting(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that records the arguments of each call."""
    calls = []
    real = getattr(owner, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_theorem2_sweep_shares_per_argument_work(monkeypatch):
    farey = counting(monkeypatch, sweeps, "farey_sequence")
    max_g = counting(monkeypatch, sweeps.dls, "max_abs_g")
    config = sweeps.SweepConfig(q_values=(4, 8, 4), n_values=(8, 16), eps_values=(0.1, 0.5))
    _, rows = sweeps.theorem2_sweep(config)
    assert len(rows) == 3 * 2 * 3 * 2 * 2
    assert sorted(farey) == [(4,), (8,)]
    # One per (M, N, a, b): the three alphas and two eps values share it.
    assert len(max_g) == 1 * 2 * 2
    # Nothing is kept between calls.
    sweeps.theorem2_sweep(config)
    assert len(farey) == 4


def test_verify_classical_builds_each_order_once(monkeypatch):
    farey = counting(monkeypatch, sweeps, "farey_sequence")
    rows, ok = sweeps.verify_classical(instances=30, q_max=6, n_max=16, seed=2)
    assert ok
    assert sorted(farey) == sorted({(r["Q"],) for r in rows})
