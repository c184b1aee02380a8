module dualsim/benchmark

go 1.22

require dualsim v0.0.0

replace dualsim => ../
