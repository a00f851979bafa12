module fixture

go 1.22
