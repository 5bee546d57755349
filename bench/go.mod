module agnopol/bench

go 1.22

require agnopol v0.0.0

replace agnopol => ../
