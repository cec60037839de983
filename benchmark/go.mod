module rx/benchmark

go 1.22

require rx v0.0.0

replace rx => ../
