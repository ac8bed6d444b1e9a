module stars/bench

go 1.22

require stars v0.0.0

replace stars => ../
