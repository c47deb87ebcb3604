module unap2p/bench

go 1.22

require unap2p v0.0.0

replace unap2p => ../
