module fastinvert/bench

go 1.22

require fastinvert v0.0.0

replace fastinvert => ../
