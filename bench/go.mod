module incastproxy/bench

go 1.22

require incastproxy v0.0.0

replace incastproxy => ../
