//go:build !race

package detect_test

const raceEnabled = false
