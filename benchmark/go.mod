module her/benchmark

go 1.22

require her v0.0.0

replace her => ../
