module gotle/benchmark

go 1.23

require gotle v0.0.0

replace gotle => ../
