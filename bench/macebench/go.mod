module macedon/bench/macebench

go 1.24

require macedon v0.0.0

replace macedon => ../..
