module dualtable/bench

go 1.24

require dualtable v0.0.0

replace dualtable => ../
