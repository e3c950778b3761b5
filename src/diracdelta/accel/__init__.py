"""Engine-side models: FIFO pipeline, subgraph runs with pool and shift stages, cost model."""
