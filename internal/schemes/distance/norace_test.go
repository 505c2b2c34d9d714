//go:build !race

package distance

// raceEnabled is false in ordinary builds; see race_test.go.
const raceEnabled = false
