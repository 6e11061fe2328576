"""Generate a synthetic PV record, punch device-outage gaps into it, and show
what the degraded series looks like.

Run:  python3 demos/01_data_and_gaps.py
"""

import numpy as np

from pvmi import (
    MissingSpec,
    SynthSpec,
    generate,
    inject_missing,
    missing_fraction,
    split_chronological,
    write_csv,
)


def sparkline(values, width=48):
    """Cheap terminal plot: one glyph per bucket, height-coded."""
    glyphs = " .:-=+*#%@"
    values = np.asarray(values, dtype=float)
    buckets = np.array_split(values, width)
    tops = [np.nanmax(b) if np.isfinite(b).any() else np.nan for b in buckets]
    peak = np.nanmax(tops)
    out = []
    for t in tops:
        if not np.isfinite(t):
            out.append("!")  # fully missing bucket
        else:
            out.append(glyphs[int(t / peak * (len(glyphs) - 1))] if peak > 0 else " ")
    return "".join(out)


def main():
    spec = SynthSpec(days=90, seed=20)
    series = generate(spec)
    print(f"generated {len(series)} hourly rows starting {series.start}")
    print(f"power peak {series.power.max():.2f}, "
          f"{int((series.power == 0).sum())} night/zero hours")
    print("first two weeks of power:")
    print(" ", sparkline(series.power[: 24 * 14]))

    train, test = split_chronological(series, test_len=24 * 30)
    print(f"\nsplit: train {len(train)} h, test {len(test)} h")

    gaps = MissingSpec(
        mode="target-fraction", target_fraction=0.25, block_len_hours=48, seed=7
    )
    degraded, truth = inject_missing(train, gaps)
    print(f"injected {len(truth.values)} missing hours "
          f"({missing_fraction(degraded):.1%}) in 48 h blocks")
    print("same two weeks after injection ('!' = gap):")
    print(" ", sparkline(degraded.power[: 24 * 14]))

    restored = truth.restore(degraded)
    print(f"ground truth restores the original exactly: "
          f"{bool(np.array_equal(restored.power, train.power))}")

    write_csv(degraded, "demo-train-degraded.csv")
    write_csv(test, "demo-test.csv")
    print("\nwrote demo-train-degraded.csv and demo-test.csv")


if __name__ == "__main__":
    main()
