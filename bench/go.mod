module perfknow/bench

go 1.22

require perfknow v0.0.0

replace perfknow => ../
