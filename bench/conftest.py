import run

run.pin_environment()
run.import_package()
