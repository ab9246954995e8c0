package main

import "example/internal/lib"

func main() {
	_ = lib.Used()
	lib.T{}.Method()
}
