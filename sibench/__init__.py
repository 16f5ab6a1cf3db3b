"""End-to-end and per-layer benchmark of the replicated SI system."""
