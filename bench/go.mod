module github.com/netsecurelab/mtasts/bench

go 1.22

require github.com/netsecurelab/mtasts v0.0.0

replace github.com/netsecurelab/mtasts => ../
