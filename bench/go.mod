module recycle/bench

go 1.24

require recycle v0.0.0

replace recycle => ../
