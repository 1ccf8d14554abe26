module gotrinity/bench

go 1.22

require gotrinity v0.0.0

replace gotrinity => ../
