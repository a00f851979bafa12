module adaptiveqos/bench

go 1.22

require adaptiveqos v0.0.0

replace adaptiveqos => ../
