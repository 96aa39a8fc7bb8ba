package core

// CheckEngines hands the differential check to the external tests.
var CheckEngines = checkEngines
