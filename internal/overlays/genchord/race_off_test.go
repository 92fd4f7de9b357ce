//go:build !race

package genchord_test

const raceEnabled = false
