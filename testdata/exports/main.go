package main

import (
	"fmt"

	"fixture/internal/a"
)

func main() {
	var l a.Live
	s := a.Spec{N: 2}
	fmt.Println(l.Generate(), l.Len(), s.N, a.Name("x"), a.New().Encode(1))
}
