//go:build race

package htm

const raceEnabled = true
