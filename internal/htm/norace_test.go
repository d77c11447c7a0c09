//go:build !race

package htm

const raceEnabled = false
