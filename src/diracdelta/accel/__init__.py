"""Engine-side models: FIFO pipeline, unit lanes, subgraph runs, cost model."""
