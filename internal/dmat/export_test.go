package dmat

// DoorDistance exposes the reference distance resolver to the external
// differential tests.
var DoorDistance = doorDistance
