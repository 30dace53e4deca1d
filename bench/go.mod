module falcon/bench

go 1.22

require falcon v0.0.0

replace falcon => ../
