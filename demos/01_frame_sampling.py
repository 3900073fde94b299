"""Which observed frames feed the temporal branch for a query timestamp.

The last frame is always anchored at the query time; earlier frames step
back at the sampling interval and clamp to 0 near the stream start.
"""

from vista import plan_frames

for query in (4.0, 1.0, 0.0):
    stamps = ", ".join(f"{t:.2f}" for t in plan_frames(query, frame_count=8, sample_rate=2.0))
    print(f"t = {query:>4.1f} s  ->  [{stamps}]")

print()
print("denser sampling (4 FPS):")
print("  ", ", ".join(f"{t:.2f}" for t in plan_frames(4.0, frame_count=8, sample_rate=4.0)))
