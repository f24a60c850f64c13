"""Upper bounds on the diameter of Cayley graphs generated by transposition
trees, with an exact BFS oracle for small n, free-tree enumeration, and a
batch experiment CLI."""
