module onepass

go 1.23
