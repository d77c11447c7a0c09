// Fixture for the tmflow unit tests: reaching-definition facts and
// dead-code pruning. The tests locate declarations by name, so the code
// here can move freely as long as the names stay.
package fixture

func flowFacts(p int) int {
	early := p // use before any redefinition: the initial value reaches
	p = 5
	late := p // every path redefines p first: the initial value cannot reach
	panic("beyond here the body is dead")
	dead := early + late // statically unreachable
	return dead
}

func taken() int {
	esc := 3
	sink(&esc)
	return esc
}

func sink(p *int) { _ = p }
