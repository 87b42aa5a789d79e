module siteselect/bench

go 1.22

require siteselect v0.0.0

replace siteselect => ../
