module perfbase/bench

go 1.24

require perfbase v0.0.0

replace perfbase => ../
