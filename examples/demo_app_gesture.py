"""The Figure-3 demonstration, rendered as text screens.

Reproduces the paper's demo scenario end to end on the simulated app:

(a, b)  real-time inference of existing activities (Still, Walk),
(c)     collecting new activity data for "Gesture Hi",
(d)     updating the Edge model,
(e)     inference on the freshly learned activity,

with the app's event log and Fig.-3-style screen panels printed along the
way, plus the resource accounting of the whole session.

Run:  python examples/demo_app_gesture.py
"""

from repro.core import CloudConfig
from repro.datasets import build_edge_scenario
from repro.edge_runtime import (
    MagnetoApp,
    MIDRANGE_PHONE,
    ResourceAccountant,
    render_event_log,
    render_prediction,
    render_session,
)
from repro.nn import TrainConfig
from repro.utils import format_bytes


def main() -> None:
    print("Provisioning the demo phone (Cloud pre-training + transfer)...")
    scenario = build_edge_scenario(
        cloud_config=CloudConfig(
            backbone_dims=(256, 128, 64),
            embedding_dim=64,
            train=TrainConfig(epochs=20, batch_pairs=64, lr=1e-3),
            support_capacity=100,
        ),
        n_users=5,
        windows_per_user_per_activity=30,
        rng=2024,
    )
    edge = scenario.fresh_edge(rng=3)
    edge.accountant = ResourceAccountant(MIDRANGE_PHONE)
    app = MagnetoApp(edge, scenario.sensor_device)

    # --- Fig. 3 (a, b): live inference on existing activities --------- #
    for activity in ("still", "walk"):
        print(f"\n=== participant performs {activity!r} ===")
        frames = app.infer_live(activity, duration_s=5.0)
        print(render_session(frames))
        print()
        print(render_prediction(frames[-1]))

    # --- Fig. 3 (c): record the new activity --------------------------- #
    print("\n=== participant records 'Gesture Hi' for 25 s ===")
    app.record_activity("gesture_hi", "gesture_hi", duration_s=25.0)

    # --- Fig. 3 (d): update the model on-device ------------------------ #
    print("=== updating the Edge model (contrastive + distillation) ===")
    result = app.learn_staged("gesture_hi")
    print(f"re-training finished after {result.history.n_epochs} epochs "
          f"(final loss {result.history.final_loss():.4f})")

    # --- Fig. 3 (e): recognize the new activity ------------------------ #
    print("\n=== participant performs 'Gesture Hi' again ===")
    frames = app.infer_live("gesture_hi", duration_s=5.0)
    print(render_session(frames))
    print()
    print(render_prediction(frames[-1]))

    # --- session wrap-up ------------------------------------------------ #
    print("\n=== app event log ===")
    print(render_event_log(app.events))

    summary = edge.accountant.summary(edge.footprint_bytes())
    print("\n=== resource accounting ===")
    print(f"inferences: {summary['inferences']:.0f}, "
          f"re-trainings: {summary['retrainings']:.0f}")
    print(f"footprint: {format_bytes(summary['footprint_bytes'])} "
          f"(budget {format_bytes(summary['storage_budget_bytes'])})")
    print(f"modeled compute: {summary['modeled_compute_ms'] / 1e3:.1f} s, "
          f"energy: {summary['compute_energy_joules']:.1f} J")
    print(f"user bytes sent to Cloud: "
          f"{edge.guard.user_bytes_sent_to_cloud()} (by construction, 0)")


if __name__ == "__main__":
    main()
