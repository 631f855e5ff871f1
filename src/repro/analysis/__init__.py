"""Statistics and text-rendering helpers shared by the experiments."""
