module alpacomm/bench

go 1.24

require alpacomm v0.0.0

replace alpacomm => ../
