module avd/benchmark

go 1.24

require avd v0.0.0

replace avd => ../
