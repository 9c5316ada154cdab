module simjoin/benchmark

go 1.22

require simjoin v0.0.0

replace simjoin => ../
